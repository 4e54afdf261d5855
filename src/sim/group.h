// Partitioned engine: one calendar Engine per partition, merged serially
// (DESIGN.md §9).
//
// An EngineGroup owns N calendar engines ("partitions"); each Testbed node
// gets one. Partitions interact only through declared channels, each
// carrying a lookahead: a lower bound on the latency between the moment
// the source schedules a cross-partition event and the tick it fires at.
// For the OSIRIS testbed the bound is physical — a submitted cell
// serializes for one cell time and then propagates for the wire's fixed
// delay before the peer can see it.
//
// run() is a serial merge. Each step picks the partition whose next tick
// (a local event or a staged import) is the earliest, ties going to the
// lower partition index, injects the imports staged for that tick in
// (tick, channel, send order), and dispatches the tick batch with
// Engine::step_tick(). Because every import carries at least the
// channel's lookahead, nothing still to be dispatched can add an import
// at or before the chosen tick, so the staged set is complete when it is
// injected. Injecting at the instant a tick becomes the partition's next
// pins each partition's dispatch order to a point defined by its own
// simulation state alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace osiris::sim {

class EngineGroup {
 public:
  /// Cumulative counters over every run().
  struct Stats {
    std::uint64_t rounds = 0;         ///< always 0: the merge has no sync
                                      ///< rounds (perfbench still reads it)
    std::uint64_t remote_events = 0;  ///< cross-partition events scheduled
    std::uint64_t dispatched = 0;     ///< events fired, summed over partitions
  };

  explicit EngineGroup(std::size_t partitions);
  EngineGroup(const EngineGroup&) = delete;
  EngineGroup& operator=(const EngineGroup&) = delete;

  [[nodiscard]] std::size_t partitions() const { return engines_.size(); }
  [[nodiscard]] Engine& partition(std::size_t i) { return *engines_[i]; }

  /// Declares a directed channel src -> dst whose events always carry at
  /// least `lookahead` ticks of latency. The lookahead must be nonzero: a
  /// zero bound would let an import land on a tick its destination may
  /// already have dispatched (rejected, not clamped, so a misconfigured
  /// link fails loudly). Redeclaring a channel tightens its lookahead.
  void connect(std::size_t src, std::size_t dst, Duration lookahead);

  /// Schedules `ev` onto partition `dst`'s engine at absolute tick `at`,
  /// from partition `src`. Must respect the channel's declared lookahead:
  /// at >= src.now() + lookahead. The event is merged into dst's order at
  /// (tick, channel, send order).
  void schedule_remote(std::size_t src, std::size_t dst, Tick at,
                       RemoteEvent ev);

  /// Runs every partition to completion, then equalizes the partition
  /// clocks at the latest dispatched tick. Returns now().
  Tick run();

  /// Max of the partition clocks (equalized whenever run() completes).
  [[nodiscard]] Tick now() const;

  [[nodiscard]] Stats stats() const;

  /// Wall-clock profile of run(). dispatch_ns takes one sample per run()
  /// while profiling is on; the merge has no import, stall or barrier
  /// phase, so the other histograms stay empty (perfbench still reads
  /// them).
  struct PhaseProfile {
    Log2Histogram drain_ns;
    Log2Histogram dispatch_ns;
    Log2Histogram stall_ns;
    Log2Histogram barrier_ns;
  };

  /// Turns run() timing on. Off (the default) run() reads no clock.
  void enable_profiling(bool on = true) { profiling_ = on; }
  [[nodiscard]] const PhaseProfile& profile() const { return profile_; }

 private:
  /// An import waiting for its tick. The RemoteEvent is too large for a
  /// calendar node, so it parks in the destination's slot pool and the
  /// injected event captures {inbox, slot}.
  struct Staged {
    Tick at = 0;
    std::uint32_t ch = 0;    // channel declaration index
    std::uint64_t seq = 0;   // send order
    std::uint32_t slot = 0;
  };
  struct Inbox {
    std::vector<RemoteEvent> slots;
    std::vector<std::uint32_t> free;
  };
  struct Part {
    std::vector<Staged> stage;  // min-heap on (at, ch, seq)
    Inbox inbox;
  };
  struct Channel {
    std::uint32_t idx = 0;
    Duration lookahead = 0;
  };

  static constexpr Tick kNever = ~Tick{0};

  /// Heap order: std::*_heap keep the largest on top, so "after" on
  /// (at, ch, seq) makes the stage a min-heap.
  static bool staged_after(const Staged& a, const Staged& b);
  /// Earliest tick partition p can dispatch next, or kNever.
  Tick next_tick(std::size_t p);
  void inject(std::size_t p, const Staged& s);

  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Channel> channels_;  // [src * n + dst]; lookahead 0 = none
  std::uint32_t declared_ = 0;
  std::vector<Part> parts_;
  std::uint64_t sent_ = 0;

  bool profiling_ = false;
  PhaseProfile profile_;
};

}  // namespace osiris::sim
