// Partitioned conservative parallel DES (DESIGN.md §9 and §14).
//
// An EngineGroup owns N calendar engines ("partitions"); each Testbed node
// (and, in principle, each striped-link sublink) gets one. Partition state
// is thread-confined: a partition's events run only on the thread that
// owns it, so the hot dispatch path is exactly the serial engine's.
//
// Partitions interact only through declared channels, each carrying a
// lookahead: a lower bound on the latency between the moment the source
// schedules a cross-partition event and the tick it fires at. For the
// OSIRIS testbed the bound is physical — a submitted cell serializes for
// one cell time and then propagates for the wire's fixed delay before the
// peer can see it — which is exactly the structure conservative parallel
// simulation needs.
//
// Synchronization is mostly asynchronous (DESIGN.md §14). Each channel
// publishes an atomic earliest-output time (EOT): a promise by the
// producer that nothing it has not yet made visible in the channel's ring
// will fire before that tick. A partition reads its inbound EOTs, drains
// the rings, and free-runs its own calendar up to
//   horizon = min(inbound EOTs) - 1
// without synchronizing with anyone; producers re-publish EOT as their
// clock advances, so two busy partitions pipeline with no barrier at all.
// Imported envelopes are staged in a per-destination heap and injected
// into the local calendar in (tick, channel, per-channel seq) order at the
// instant their tick becomes the next to dispatch — a point defined purely
// by simulation state — so dispatch order (and therefore every stat,
// trace, and chaos fingerprint) is bit-identical for every thread count.
//
// Only when a partition cannot advance (next event beyond its horizon)
// does it fall back to a single fused barrier per round: the last arriver
// hands over ring backlogs and producer-side overflow, detects
// termination, and — when events remain — jumps every channel's EOT to
// (global next event + lookahead), so empty stretches of simulated time
// cost one round instead of a creep of lookahead-sized windows.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "sim/engine.h"
#include "sim/spsc.h"
#include "sim/time.h"

namespace osiris::sim {

namespace detail {
/// Polite busy-wait hint: tells the core we are spinning on another
/// thread's store so SMT siblings (and the power budget) get the slot.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}
}  // namespace detail

/// Reusable sense-reversing barrier. The last thread to arrive runs the
/// caller-supplied leader section (with every other participant quiesced)
/// before releasing the phase; release/acquire on the phase word gives the
/// happens-before edges the leader's reads and writes need.
///
/// Waiters spin with exponential backoff (cpu_relax bursts that double up
/// to a cap) before falling back to yield() — the testbed is often run
/// with more threads than cores (not least in CI), where pure spinning
/// would invert the speedup. Each wait reports how it stalled: spins mean
/// "waiting on a peer core", yields mean "waiting on the scheduler", and
/// the profiling histograms keep the two separate.
class SyncBarrier {
 public:
  /// How one arrive_and_wait() stalled (leader returns zeros: it never
  /// waits, it works).
  struct WaitStats {
    std::uint64_t spins = 0;
    std::uint64_t yields = 0;
  };

  explicit SyncBarrier(int parties) : parties_(parties) {}

  template <typename F>
  WaitStats arrive_and_wait(F&& leader) {
    const std::uint32_t ph = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      leader();
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(ph + 1, std::memory_order_release);
      return {};
    }
    WaitStats ws;
    std::uint32_t burst = kSpinStart;
    while (phase_.load(std::memory_order_acquire) == ph) {
      if (burst < kSpinCap) {
        for (std::uint32_t i = 0; i < burst; ++i) detail::cpu_relax();
        ws.spins += burst;
        burst <<= 1;
      } else {
        std::this_thread::yield();
        ++ws.yields;
      }
    }
    spins_.fetch_add(ws.spins, std::memory_order_relaxed);
    yields_.fetch_add(ws.yields, std::memory_order_relaxed);
    return ws;
  }

  WaitStats arrive_and_wait() {
    return arrive_and_wait([] {});
  }

  /// Cumulative stall counters over every wait at this barrier: relaxed
  /// reads, meant for between-run reporting, not synchronization.
  [[nodiscard]] std::uint64_t total_spins() const {
    return spins_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_yields() const {
    return yields_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kSpinStart = 16;
  static constexpr std::uint32_t kSpinCap = 4096;
  int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint32_t> phase_{0};
  std::atomic<std::uint64_t> spins_{0};
  std::atomic<std::uint64_t> yields_{0};
};

class EngineGroup {
 public:
  /// Aggregate counters for the last / cumulative run()s.
  struct Stats {
    std::uint64_t rounds = 0;          ///< fused fallback barrier rounds
    std::uint64_t remote_events = 0;   ///< envelopes imported
    std::uint64_t ring_overflows = 0;  ///< envelopes that spilled past the ring
    std::uint64_t dispatched = 0;      ///< events fired, summed over partitions
  };

  explicit EngineGroup(std::size_t partitions);
  ~EngineGroup();
  EngineGroup(const EngineGroup&) = delete;
  EngineGroup& operator=(const EngineGroup&) = delete;

  [[nodiscard]] std::size_t partitions() const { return engines_.size(); }
  [[nodiscard]] Engine& partition(std::size_t i) { return *engines_[i]; }

  /// Declares a directed channel src -> dst whose events always carry at
  /// least `lookahead` ticks of latency. The lookahead must be nonzero —
  /// a zero bound admits no conservative window (rejected, not clamped,
  /// so a misconfigured link fails loudly instead of deadlocking).
  /// Redeclaring an existing channel tightens its lookahead downward.
  void connect(std::size_t src, std::size_t dst, Duration lookahead);

  /// Schedules `ev` onto partition `dst`'s engine at absolute tick `at`,
  /// from partition `src`. Must respect the channel's declared lookahead:
  /// at >= src.now() + lookahead. Callable from src's thread only (the
  /// channel ring is single-producer). The event is dispatched on dst's
  /// thread, merged into dst's order at (tick, channel, send order).
  void schedule_remote(std::size_t src, std::size_t dst, Tick at,
                       RemoteEvent ev);

  /// Runs every partition to completion on `threads` OS threads (clamped
  /// to [1, partitions]). threads == 1 executes the identical EOT/pump
  /// protocol in-process, so dispatch order — and therefore every stat and
  /// trace — is independent of the thread count. Returns now().
  Tick run(int threads = 1);

  /// Max of the partition clocks (equalized whenever run() completes).
  [[nodiscard]] Tick now() const;

  /// The EOT currently published on channel src -> dst: a lower bound on
  /// the tick of anything the producer has not yet made visible. Atomic
  /// read, callable from any thread (tests probe monotonicity with it).
  /// Throws if the channel was never declared.
  [[nodiscard]] Tick eot(std::size_t src, std::size_t dst) const;

  [[nodiscard]] Stats stats() const;

  /// Worker-phase wall-clock breakdown, sampled per pump (one pass over a
  /// worker's partitions): time importing envelopes (drain), dispatching
  /// events (dispatch), idling in no-progress retry backoff (stall), and
  /// blocked at the fused fallback barrier (barrier). barrier_spins /
  /// barrier_yields split each barrier wait into spinning on a peer vs
  /// yielding to the scheduler — on an oversubscribed host the yields
  /// dominate, which is a scheduling problem, not a protocol one.
  struct PhaseProfile {
    Log2Histogram drain_ns;
    Log2Histogram dispatch_ns;
    Log2Histogram stall_ns;
    Log2Histogram barrier_ns;
    Log2Histogram barrier_spins;
    Log2Histogram barrier_yields;
    void merge(const PhaseProfile& o) {
      drain_ns.merge(o.drain_ns);
      dispatch_ns.merge(o.dispatch_ns);
      stall_ns.merge(o.stall_ns);
      barrier_ns.merge(o.barrier_ns);
      barrier_spins.merge(o.barrier_spins);
      barrier_yields.merge(o.barrier_yields);
    }
  };

  /// Turns per-pump phase timing on for subsequent run()s. Off (the
  /// default) the worker loop takes no clock reads at all.
  void enable_profiling(bool on = true) { profiling_ = on; }
  [[nodiscard]] bool profiling_enabled() const { return profiling_; }

  /// Phase timings merged over workers; call between run()s, not during.
  [[nodiscard]] PhaseProfile profile() const;

 private:
  struct Envelope {
    Tick at = 0;
    std::uint64_t seq = 0;  // producer-stamped, monotone per channel
    RemoteEvent ev;
  };
  /// One directed src -> dst edge. The producer side (ring pushes, the
  /// overflow spill, next_seq) is touched only by src's thread; the
  /// consumer side (ring pops, imported) only by dst's; eot is the one
  /// cross-thread word, single-writer (src, or the fused-barrier leader
  /// while everyone is quiesced).
  struct Channel {
    std::size_t src = 0;
    std::size_t dst = 0;
    std::uint32_t idx = 0;   // declaration index: the tie-break in
                             // (tick, channel, seq) import order
    Tick lookahead = 0;
    std::atomic<Tick> eot{0};
    SpscRing<Envelope> ring{kRingCapacity};
    // Producer-owned spill for a full ring, drained back into the ring
    // opportunistically and handed over wholesale at fused barriers.
    // While anything is pending here the published EOT is capped at the
    // earliest spilled tick — the consumer cannot see those envelopes yet.
    std::vector<Envelope> overflow;
    std::size_t overflow_head = 0;   // consumed prefix of `overflow`
    // Cached min tick over pending overflow; conservative (a partial
    // flush can leave it low, never high), reset when the spill empties.
    Tick overflow_min = ~Tick{0};
    std::uint64_t next_seq = 0;      // producer-owned
    std::uint64_t overflowed = 0;    // producer-owned counter
    std::uint64_t imported = 0;      // consumer-owned counter
  };
  /// A drained-but-not-yet-injected envelope: the fat RemoteEvent parks in
  /// the destination's inbox pool and the staging heap keys {tick,
  /// channel, seq} so injection order is canonical no matter when the ring
  /// was drained.
  struct Staged {
    Tick at = 0;
    std::uint32_t ch = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  /// Destination-owned parking pool for imported envelopes: the engine's
  /// queue nodes only carry lean 48-byte events, so the big envelope waits
  /// in a pooled slot and the scheduled event captures {inbox, slot}.
  struct Inbox {
    std::vector<RemoteEvent> slots;
    std::vector<std::uint32_t> free;
  };
  /// Per-partition consumer-side state, thread-confined to the worker that
  /// owns the partition (the fused-barrier leader touches it only with
  /// everyone quiesced).
  struct Part {
    std::vector<Channel*> inbound;
    std::vector<Channel*> outbound;
    std::vector<Staged> stage;  // min-heap on (at, ch, seq)
    Inbox inbox;
  };

  static constexpr std::size_t kRingCapacity = 1024;
  static constexpr Tick kNoHorizon = ~Tick{0};
  /// Tick batches one pump() dispatches before rotating to the worker's
  /// next partition: keeps co-owned partitions' EOTs advancing (threads <
  /// partitions) without re-reading inbound EOTs per batch.
  static constexpr std::size_t kBatchesPerPump = 256;
  /// No-progress pumps a worker retries (with growing cpu_relax backoff)
  /// before falling back to the fused barrier: enough to ride out a peer
  /// that is about to publish a fresh EOT, few enough that true dead time
  /// reaches the skip-ahead round quickly. Only taken with threads > 1:
  /// a lone worker has no peer to wait for.
  static constexpr int kIdleRetries = 8;

  Channel* channel(std::size_t src, std::size_t dst);
  static Tick saturating_add(Tick t, Tick d) {
    return t >= kNoHorizon - d ? kNoHorizon : t + d;
  }
  static bool staged_less(const Staged& a, const Staged& b);
  void flush_overflow(Channel* ch);
  void publish_eot(Channel* ch, Tick ready);
  void stage_envelope(std::size_t p, std::uint32_t ch_idx, Envelope e);
  void inject(std::size_t p, const Staged& s);
  void drain_inbound(std::size_t p);
  /// The asynchronous hot loop: refresh horizon, drain rings, dispatch up
  /// to the horizon injecting staged imports tick by tick, publish EOTs.
  /// Returns whether any event was dispatched.
  bool pump(std::size_t p, PhaseProfile* prof);
  /// Fused-barrier leader section (all workers quiesced): hand over ring
  /// backlogs and overflow, detect termination (equalizing the partition
  /// clocks), or jump every channel's EOT past the global next event.
  void fused_round();
  void worker(int wid, int threads);

  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<int> chan_idx_;  // [src * n + dst] -> index or -1
  std::vector<Part> parts_;

  // Written by the fused-barrier leader, read by all workers; the
  // barrier's release/acquire ordering covers both directions.
  bool done_ = false;
  std::unique_ptr<SyncBarrier> barrier_;

  std::uint64_t rounds_ = 0;

  // One slot per worker id (resized in run()); each worker writes only its
  // own slot, so profiling is race-free without synchronization.
  bool profiling_ = false;
  std::vector<PhaseProfile> profiles_;
};

}  // namespace osiris::sim
