// Discrete-event simulation engine.
//
// The engine owns a time-ordered queue of events; each event is a callback
// that fires at an absolute tick. Actors (board processors, the host CPU,
// link sublinks, ...) hold a reference to the engine and schedule their own
// continuations. Events at equal ticks fire in scheduling order (stable
// FIFO), which keeps runs fully deterministic.
//
// Every experiment funnels millions of events through this file, so the
// internals are built for throughput (see DESIGN.md §8):
//   * Event is a one-shot type-erased callable with inline small-buffer
//     storage — the common capture ("this" plus a couple of scalars) never
//     touches the heap;
//   * event nodes live in a freelist-backed arena, so steady-state
//     scheduling allocates nothing;
//   * the queue is a calendar: a wheel of fixed-width tick buckets covering
//     a sliding near-future window, backed by a far-future binary heap that
//     spills into the wheel as time advances. Dispatch order is exactly
//     (tick, schedule-sequence) — identical to the old priority queue.
//   * timers scheduled through schedule_timer() return a TimerHandle and
//     can be cancelled, so retransmit/watchdog timers stop firing dead
//     generations.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/stats.h"
#include "sim/time.h"

namespace osiris::sim {

namespace detail {
/// Process-wide boxing counter shared by every BasicEvent instantiation.
struct EventMeter {
  static inline std::uint64_t boxed_allocs = 0;
};
}  // namespace detail

/// One-shot type-erased callable with small-buffer optimization. Unlike
/// std::function, captures up to Inline bytes are stored inline (no heap
/// allocation) and invocation destroys the callable — an event fires once.
///
/// The inline budget is a template parameter because different carriers
/// want different trade-offs: queue nodes (Event) stay lean for cache
/// density, while cross-partition envelopes (RemoteEvent) are sized to
/// carry a delivered ATM cell by value without boxing.
template <std::size_t Inline>
class BasicEvent {
 public:
  /// Inline capture budget. For Event it is sized for the engine's common
  /// case: a `this` pointer plus a handful of scalars (epoch, serial,
  /// tick), with room for a small descriptor. Larger captures are boxed on
  /// the heap (and counted; see boxed_allocations()).
  static constexpr std::size_t kInlineBytes = Inline;

  BasicEvent() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, BasicEvent> &&
                                        std::is_invocable_r_v<void, D&>>>
  BasicEvent(F&& f) {  // NOLINT(google-explicit-constructor): callable adapter
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ++detail::EventMeter::boxed_allocs;
      ops_ = &kBoxedOps<D>;
    }
  }

  BasicEvent(BasicEvent&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  BasicEvent& operator=(BasicEvent&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  BasicEvent(const BasicEvent&) = delete;
  BasicEvent& operator=(const BasicEvent&) = delete;

  ~BasicEvent() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes and destroys the callable. One-shot: the event is empty
  /// afterwards (and stays valid even if the callable throws).
  void operator()() {
    const Ops* o = ops_;
    ops_ = nullptr;
    o->invoke_destroy(buf_);
  }

  /// Process-wide count of events whose captures were too large for the
  /// inline buffer and were heap-boxed. The engine snapshots this to meter
  /// residual allocations.
  [[nodiscard]] static std::uint64_t boxed_allocations() noexcept {
    return detail::EventMeter::boxed_allocs;
  }

 private:
  struct Ops {
    void (*invoke_destroy)(void* self);
    void (*relocate)(void* dst, void* src);  // move into dst, destroy src
    void (*destroy)(void* self);
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  template <typename D>
  static D* stored(void* p) noexcept {
    return std::launder(reinterpret_cast<D*>(p));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* self) {
        D* d = stored<D>(self);
        D local(std::move(*d));
        d->~D();
        local();
      },
      [](void* dst, void* src) {
        D* s = stored<D>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* self) { stored<D>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kBoxedOps = {
      [](void* self) {
        std::unique_ptr<D> d(*stored<D*>(self));
        (*d)();
      },
      [](void* dst, void* src) { ::new (dst) D*(*stored<D*>(src)); },
      [](void* self) { delete *stored<D*>(self); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The engine's queue-node event type.
using Event = BasicEvent<48>;

/// Cross-partition envelope event (see EngineGroup in group.h): sized so a
/// link delivery — sink pointer, lane, and a 53-byte ATM cell by value —
/// waits for its tick inline, without touching the heap.
using RemoteEvent = BasicEvent<88>;

namespace detail {
/// Arena-backed queue node. Nodes are never freed individually; fired and
/// cancelled nodes return to the engine's freelist for reuse.
struct EventNode {
  Tick at = 0;
  std::uint64_t seq = 0;  // unique per scheduling; 0 = recycled
  EventNode* next = nullptr;
  Event ev;
};
}  // namespace detail

/// Handle to a cancellable scheduled event (see Engine::schedule_timer).
/// Valid only against the engine that issued it. Cheap to copy; stale
/// handles (fired or already-cancelled events) are safe no-ops to cancel.
class TimerHandle {
 public:
  TimerHandle() noexcept = default;

 private:
  friend class Engine;
  TimerHandle(detail::EventNode* n, std::uint64_t s) noexcept
      : node_(n), seq_(s) {}
  detail::EventNode* node_ = nullptr;
  std::uint64_t seq_ = 0;
};

class Engine {
 public:
  using Event = sim::Event;

  /// Self-metering snapshot (see stats()).
  struct Stats {
    std::uint64_t dispatched = 0;      ///< events fired
    std::uint64_t cancelled = 0;       ///< timers cancelled before firing
    std::size_t pending = 0;           ///< live events currently queued
    std::size_t high_water = 0;        ///< max pending since construction
    std::uint64_t far_scheduled = 0;   ///< events that took the overflow heap
    std::uint64_t spills = 0;          ///< heap → wheel migrations
    std::uint64_t rewindows = 0;       ///< wheel window advances
    std::uint64_t arena_chunks = 0;    ///< node arena chunks allocated
    std::uint64_t boxed_events = 0;    ///< heap-boxed events since construction
    double wall_seconds = 0;           ///< wall-clock time since construction
    double events_per_sec = 0;         ///< dispatched / wall_seconds
  };

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Tick now() const { return now_; }

  /// Schedules `fn` to run `delay` ticks from now.
  void schedule(Duration delay, Event fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Schedules `fn` at absolute time `t`. `t` must not be in the past.
  void schedule_at(Tick t, Event fn) { insert_node(t, std::move(fn)); }

  /// Like schedule()/schedule_at(), but returns a handle the caller can
  /// pass to cancel() to stop the event from firing.
  TimerHandle schedule_timer(Duration delay, Event fn) {
    return schedule_timer_at(now_ + delay, std::move(fn));
  }
  TimerHandle schedule_timer_at(Tick t, Event fn) {
    detail::EventNode* n = insert_node(t, std::move(fn));
    return TimerHandle{n, n->seq};
  }

  /// Cancels a timer if it has not fired yet. Returns true if this call
  /// cancelled it; false for stale handles (already fired or cancelled).
  /// Clears the handle either way.
  bool cancel(TimerHandle& h);

  /// Runs events until the queue drains. Returns the final time.
  Tick run();

  /// Runs events with timestamps <= `deadline`; leaves later events queued.
  /// Advances now() to `deadline` even if the queue drains earlier.
  Tick run_until(Tick deadline);

  /// Advances now() to `t` without dispatching anything (no-op when `t` is
  /// in the past). The partitioned group uses it to equalize the partition
  /// clocks once a run drains, so follow-up scheduling against any
  /// partition sees one consistent time.
  void advance_to(Tick t) {
    if (t > now_) now_ = t;
  }

  /// Fires the single earliest event. Returns false if the queue is empty.
  bool step();

  /// Batch dispatch: fires every event sharing the earliest pending tick —
  /// including events the batch itself schedules at that same tick — in
  /// one call, without re-entering the drain scan between them. Returns
  /// the number of events fired; 0 means the queue is drained. run() and
  /// run_until() are built on this, and callers that coalesce same-tick
  /// work (e.g. the board receive path's burst handling) step the clock
  /// one tick-batch at a time with it.
  std::size_t step_tick();

  /// Timestamp of the earliest live pending event, or nullopt when the
  /// queue is drained. Non-const: looking ahead purges cancelled
  /// tombstones (which is invisible to dispatch order). This is the
  /// per-partition clock the partitioned group merges on.
  [[nodiscard]] std::optional<Tick> next_event_time();

  /// Number of live (uncancelled) events currently queued.
  [[nodiscard]] std::size_t pending() const { return size_; }

  /// Total number of events dispatched since construction.
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  [[nodiscard]] Stats stats() const;

  /// Attaches a wall-clock probe to step_tick(): each tick batch's dispatch
  /// time (in nanoseconds) is recorded into `h`. Null (the default)
  /// detaches the probe, leaving only a pointer test on the dispatch path
  /// — bench_engine runs detached, so the hot loop pays nothing else.
  void set_step_probe(Log2Histogram* h) { step_probe_ = h; }

 private:
  friend class EngineGroup;

  /// Changes with every insert, dispatch and cancel — the only operations
  /// that can move the earliest live event — so the group can cache each
  /// partition's next tick and re-read it only when this count moves.
  [[nodiscard]] std::uint64_t mutations() const {
    return next_seq_ + dispatched_ + cancelled_;
  }

  // Calendar geometry: 4096 buckets of 2^16 ticks (65.536 ns) cover a
  // ~268 µs sliding window — wide enough that cell times (~682 ns),
  // firmware costs (tens of ns) and DMA/bus bookings land in the wheel;
  // millisecond-scale protocol timers take the far heap, which is rare by
  // construction. Dispatch order is (at, seq) regardless of geometry.
  static constexpr std::size_t kBucketBits = 12;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::uint32_t kWidthLog2 = 16;
  static constexpr Tick kSpan = Tick{kBuckets} << kWidthLog2;
  static constexpr std::size_t kChunkNodes = 256;
  static constexpr std::size_t kNoBucket = ~std::size_t{0};
  static_assert(kBuckets == 64 * 64,
                "one summary word covers the occupancy words");

  using Node = detail::EventNode;

  struct Bucket {  // valid only while its occupancy bit is set
    Node* head;
    Node* tail;
  };

  static bool node_less(const Node* a, const Node* b) {
    return a->at != b->at ? a->at < b->at : a->seq < b->seq;
  }
  struct FarLater {  // min-heap on (at, seq)
    bool operator()(const Node* a, const Node* b) const { return node_less(b, a); }
  };

  Node* alloc_node();
  void recycle(Node* n);
  Node* insert_node(Tick t, Event fn);
  void bucket_append(std::size_t idx, Node* n);
  [[nodiscard]] std::size_t next_occupied(std::size_t from) const;
  bool ensure_run();      // makes run_[run_pos_] valid; false if drained
  Node* peek_live();      // next live node, purging cancelled ones
  void dispatch_front();  // fires run_[run_pos_]
  void rewindow();        // re-bases the wheel on the far heap's minimum

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t size_ = 0;        // live events queued
  std::size_t nodes_queued_ = 0;  // live + cancelled tombstones
  std::size_t high_water_ = 0;

  // Current-bucket run: sorted by (at, seq), consumed from run_pos_.
  std::vector<Node*> run_;
  std::size_t run_pos_ = 0;

  Tick base_ = 0;               // window start, multiple of bucket width
  std::size_t cur_bucket_ = 0;  // bucket whose content lives in run_
  std::size_t scan_from_ = 1;   // first bucket the drain scan considers
  // Left uninitialised: a bucket is read only while occupied, so the
  // wheel's pages are touched as buckets are used, not when an engine is
  // built.
  std::unique_ptr<Bucket[]> wheel_;
  std::array<std::uint64_t, kBuckets / 64> occupied_{};  // bit per bucket
  std::uint64_t occupied_words_ = 0;  // bit w set iff occupied_[w] != 0

  std::vector<Node*> far_;  // heap, FarLater

  Node* free_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> chunks_;

  std::uint64_t far_scheduled_ = 0;
  std::uint64_t spills_ = 0;
  std::uint64_t rewindows_ = 0;
  std::uint64_t boxed_at_ctor_ = 0;
  std::chrono::steady_clock::time_point created_;

  Log2Histogram* step_probe_ = nullptr;  // optional step_tick() wall-clock probe
};

}  // namespace osiris::sim
