#include "sim/group.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace osiris::sim {

EngineGroup::EngineGroup(std::size_t partitions) {
  if (partitions == 0) {
    throw std::invalid_argument("EngineGroup: need at least one partition");
  }
  engines_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    engines_.push_back(std::make_unique<Engine>());
  }
  channels_.resize(partitions * partitions);
  parts_.resize(partitions);
}

void EngineGroup::connect(std::size_t src, std::size_t dst, Duration lookahead) {
  if (src >= partitions() || dst >= partitions() || src == dst) {
    throw std::logic_error("EngineGroup::connect: bad partition pair");
  }
  if (lookahead == 0) {
    throw std::logic_error(
        "EngineGroup::connect: zero lookahead admits no conservative window");
  }
  Channel& ch = channels_[src * partitions() + dst];
  if (ch.lookahead == 0) {
    ch.idx = declared_++;
    ch.lookahead = lookahead;
  } else {
    ch.lookahead = std::min(ch.lookahead, lookahead);
  }
}

bool EngineGroup::staged_after(const Staged& a, const Staged& b) {
  if (a.at != b.at) return a.at > b.at;
  if (a.ch != b.ch) return a.ch > b.ch;
  return a.seq > b.seq;
}

void EngineGroup::schedule_remote(std::size_t src, std::size_t dst, Tick at,
                                  RemoteEvent ev) {
  if (src >= partitions() || dst >= partitions() ||
      channels_[src * partitions() + dst].lookahead == 0) {
    throw std::logic_error("EngineGroup::schedule_remote: no channel " +
                           std::to_string(src) + " -> " + std::to_string(dst));
  }
  const Channel& ch = channels_[src * partitions() + dst];
  if (at < engines_[src]->now() + ch.lookahead) {
    throw std::logic_error(
        "EngineGroup::schedule_remote: event violates the channel's declared "
        "lookahead (conservative sync would be unsound)");
  }
  if (!ev) {
    throw std::logic_error("EngineGroup::schedule_remote: empty event");
  }
  Part& pt = parts_[dst];
  std::uint32_t slot;
  if (!pt.inbox.free.empty()) {
    slot = pt.inbox.free.back();
    pt.inbox.free.pop_back();
    pt.inbox.slots[slot] = std::move(ev);
  } else {
    slot = static_cast<std::uint32_t>(pt.inbox.slots.size());
    pt.inbox.slots.push_back(std::move(ev));
  }
  pt.stage.push_back(Staged{at, ch.idx, sent_++, slot});
  std::push_heap(pt.stage.begin(), pt.stage.end(), staged_after);
}

Tick EngineGroup::next_tick(std::size_t p) {
  Tick t = parts_[p].stage.empty() ? kNever : parts_[p].stage.front().at;
  if (const auto local = engines_[p]->next_event_time()) t = std::min(t, *local);
  return t;
}

void EngineGroup::inject(std::size_t p, const Staged& s) {
  Inbox* ib = &parts_[p].inbox;
  const std::uint32_t slot = s.slot;
  engines_[p]->schedule_at(s.at, [ib, slot] {
    RemoteEvent ev = std::move(ib->slots[slot]);
    ib->free.push_back(slot);
    ev();
  });
}

Tick EngineGroup::run() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0;
  if (profiling_) t0 = Clock::now();
  while (true) {
    std::size_t p = partitions();
    Tick t = kNever;
    for (std::size_t i = 0; i < partitions(); ++i) {
      const Tick ti = next_tick(i);
      if (ti < t) {
        t = ti;
        p = i;
      }
    }
    if (p == partitions()) break;
    std::vector<Staged>& stage = parts_[p].stage;
    while (!stage.empty() && stage.front().at == t) {
      std::pop_heap(stage.begin(), stage.end(), staged_after);
      inject(p, stage.back());
      stage.pop_back();
    }
    engines_[p]->step_tick();
  }
  // Equalize the partition clocks so follow-up scheduling against any
  // partition sees one consistent "now".
  const Tick end = now();
  for (auto& eng : engines_) eng->advance_to(end);
  if (profiling_) {
    profile_.dispatch_ns.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
  }
  return end;
}

Tick EngineGroup::now() const {
  Tick t = 0;
  for (const auto& eng : engines_) t = std::max(t, eng->now());
  return t;
}

EngineGroup::Stats EngineGroup::stats() const {
  Stats s;
  s.remote_events = sent_;
  for (const auto& eng : engines_) s.dispatched += eng->dispatched();
  return s;
}

}  // namespace osiris::sim
