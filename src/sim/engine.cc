#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace osiris::sim {

Engine::Engine()
    : wheel_(std::make_unique_for_overwrite<Bucket[]>(kBuckets)),
      boxed_at_ctor_(Event::boxed_allocations()),
      created_(std::chrono::steady_clock::now()) {}

Engine::~Engine() = default;  // chunks_ destroys queued events with the nodes

Engine::Node* Engine::alloc_node() {
  if (free_ == nullptr) {
    auto chunk = std::make_unique<Node[]>(kChunkNodes);
    for (std::size_t i = 0; i < kChunkNodes; ++i) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
    chunks_.push_back(std::move(chunk));
  }
  Node* n = free_;
  free_ = n->next;
  return n;
}

void Engine::recycle(Node* n) {
  n->seq = 0;  // invalidates any outstanding TimerHandle
  n->ev = Event();
  n->next = free_;
  free_ = n;
  --nodes_queued_;
}

void Engine::bucket_append(std::size_t idx, Node* n) {
  Bucket& b = wheel_[idx];
  std::uint64_t& word = occupied_[idx >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
  if ((word & bit) == 0) {
    b.head = b.tail = n;
    word |= bit;
    occupied_words_ |= std::uint64_t{1} << (idx >> 6);
  } else {
    b.tail->next = n;
    b.tail = n;
  }
}

Engine::Node* Engine::insert_node(Tick t, Event fn) {
  if (t < now_) throw std::logic_error("Engine::schedule_at: time in the past");
  if (!fn) throw std::logic_error("Engine::schedule_at: empty event");
  Node* n = alloc_node();
  n->at = t;
  n->seq = ++next_seq_;
  n->next = nullptr;
  n->ev = std::move(fn);
  ++size_;
  ++nodes_queued_;
  if (size_ > high_water_) high_water_ = size_;

  if (t >= base_ + kSpan) {
    far_.push_back(n);
    std::push_heap(far_.begin(), far_.end(), FarLater{});
    ++far_scheduled_;
    return n;
  }
  if (t < base_ || ((t - base_) >> kWidthLog2) <= cur_bucket_) {
    // At or before the bucket currently being drained: merge into the
    // sorted run at its (at, seq) position. Equal-tick events carry the
    // largest seq so far, so they land at the end of their tick's group —
    // the FIFO contract — which for the common schedule-at-now case means
    // an O(1) append.
    const auto it = std::lower_bound(run_.begin() + static_cast<std::ptrdiff_t>(run_pos_),
                                     run_.end(), n, node_less);
    run_.insert(it, n);
    return n;
  }
  bucket_append((t - base_) >> kWidthLog2, n);
  return n;
}

std::size_t Engine::next_occupied(std::size_t from) const {
  if (from >= kBuckets) return kNoBucket;
  std::size_t word = from >> 6;
  const std::uint64_t bits =
      occupied_[word] & (~std::uint64_t{0} << (from & 63));
  if (bits != 0) {
    return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
  }
  // Later words: the summary names the first nonempty one directly.
  if (word + 1 >= occupied_.size()) return kNoBucket;
  const std::uint64_t later = occupied_words_ & (~std::uint64_t{0} << (word + 1));
  if (later == 0) return kNoBucket;
  word = static_cast<std::size_t>(std::countr_zero(later));
  return (word << 6) + static_cast<std::size_t>(std::countr_zero(occupied_[word]));
}

void Engine::rewindow() {
  const Tick t0 = far_.front()->at;
  base_ = (t0 >> kWidthLog2) << kWidthLog2;
  cur_bucket_ = 0;
  scan_from_ = 0;
  ++rewindows_;
  const Tick limit = base_ + kSpan;
  while (!far_.empty() && far_.front()->at < limit) {
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    Node* n = far_.back();
    far_.pop_back();
    n->next = nullptr;
    bucket_append((n->at - base_) >> kWidthLog2, n);
    ++spills_;
  }
}

bool Engine::ensure_run() {
  if (run_pos_ < run_.size()) return true;
  run_.clear();
  run_pos_ = 0;
  while (true) {
    const std::size_t idx = next_occupied(scan_from_);
    if (idx != kNoBucket) {
      Bucket& b = wheel_[idx];
      for (Node* n = b.head; n != nullptr;) {
        Node* next = n->next;
        run_.push_back(n);
        n = next;
      }
      occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
      if (occupied_[idx >> 6] == 0) {
        occupied_words_ &= ~(std::uint64_t{1} << (idx >> 6));
      }
      // A bucket mixes direct appends with far-heap spills, so the chain
      // is not globally ordered; one sort per bucket restores (at, seq).
      std::sort(run_.begin(), run_.end(), node_less);
      cur_bucket_ = idx;
      scan_from_ = idx + 1;
      return true;
    }
    if (far_.empty()) return false;
    rewindow();
  }
}

Engine::Node* Engine::peek_live() {
  while (ensure_run()) {
    Node* n = run_[run_pos_];
    if (n->ev) return n;
    ++run_pos_;  // cancelled tombstone: discard without advancing time
    recycle(n);
  }
  return nullptr;
}

void Engine::dispatch_front() {
  Node* n = run_[run_pos_++];
  now_ = n->at;
  ++dispatched_;
  --size_;
  Event ev = std::move(n->ev);
  recycle(n);
  ev();
}

bool Engine::cancel(TimerHandle& h) {
  Node* n = h.node_;
  const std::uint64_t seq = h.seq_;
  h = TimerHandle{};
  if (n == nullptr || seq == 0 || n->seq != seq || !n->ev) return false;
  // The node stays queued as a tombstone (removing it from the middle of a
  // bucket chain or the heap would cost more than skipping it at dispatch);
  // only the callable is destroyed, and seq stays intact so the comparators
  // keep their strict order.
  n->ev = Event();
  --size_;
  ++cancelled_;
  return true;
}

bool Engine::step() {
  if (peek_live() == nullptr) return false;
  dispatch_front();
  return true;
}

std::size_t Engine::step_tick() {
  Node* n = peek_live();
  if (n == nullptr) return 0;
  const Tick t = n->at;
  std::size_t fired = 0;
  // The probe reads the wall clock only when attached, so the detached hot
  // path pays a single predictable branch.
  std::chrono::steady_clock::time_point t0;
  if (step_probe_ != nullptr) t0 = std::chrono::steady_clock::now();
  do {
    dispatch_front();
    ++fired;
    n = peek_live();
  } while (n != nullptr && n->at == t);
  if (step_probe_ != nullptr) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    step_probe_->record(static_cast<std::uint64_t>(ns));
  }
  return fired;
}

std::optional<Tick> Engine::next_event_time() {
  Node* n = peek_live();
  if (n == nullptr) return std::nullopt;
  return n->at;
}

Tick Engine::run() {
  while (step_tick() != 0) {
  }
  return now_;
}

Tick Engine::run_until(Tick deadline) {
  while (true) {
    Node* n = peek_live();
    if (n == nullptr || n->at > deadline) break;
    dispatch_front();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

Engine::Stats Engine::stats() const {
  Stats s;
  s.dispatched = dispatched_;
  s.cancelled = cancelled_;
  s.pending = size_;
  s.high_water = high_water_;
  s.far_scheduled = far_scheduled_;
  s.spills = spills_;
  s.rewindows = rewindows_;
  s.arena_chunks = chunks_.size();
  s.boxed_events = Event::boxed_allocations() - boxed_at_ctor_;
  s.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - created_)
          .count();
  s.events_per_sec =
      s.wall_seconds > 0 ? static_cast<double>(dispatched_) / s.wall_seconds : 0;
  return s;
}

}  // namespace osiris::sim
