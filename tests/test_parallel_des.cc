// Parallel conservative DES (DESIGN.md §9 and §14): serial-vs-parallel
// equivalence on fig2/fig3-shaped workloads, EOT monotonicity and
// skip-ahead behavior of the async protocol, lookahead edge cases, batch
// dispatch, and the raw EngineGroup machinery. Also the binary ci.sh runs
// under ThreadSanitizer: every cross-thread handoff in the group protocol
// is exercised here.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/spans.h"
#include "osiris/harness.h"
#include "osiris/node.h"
#include "sim/engine.h"
#include "sim/group.h"
#include "sim/spsc.h"
#include "sim/trace.h"

namespace {

using namespace osiris;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fnv_str(std::uint64_t h, const char* s) {
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t trace_hash(const sim::Trace& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const sim::TraceEvent& e : t.events()) {
    h = fnv(h, e.at);
    h = fnv_str(h, e.component);
    h = fnv_str(h, e.event);
    h = fnv(h, e.a);
    h = fnv(h, e.b);
  }
  return fnv(h, t.recorded());
}

// ------------------------------------------------ engine batch dispatch

TEST(StepTick, FiresWholeTickIncludingSameTickFollowups) {
  sim::Engine eng;
  std::vector<int> order;
  eng.schedule_at(100, [&] {
    order.push_back(1);
    // Scheduled *during* the batch, at the same tick: still part of it.
    eng.schedule_at(100, [&] { order.push_back(3); });
  });
  eng.schedule_at(100, [&] { order.push_back(2); });
  eng.schedule_at(200, [&] { order.push_back(4); });

  EXPECT_EQ(eng.step_tick(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 100u);
  EXPECT_EQ(eng.step_tick(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(eng.step_tick(), 0u);
}

TEST(StepTick, NextEventTimeSeesThroughCancelledTombstones) {
  sim::Engine eng;
  auto h = eng.schedule_timer_at(50, [] {});
  eng.schedule_at(70, [] {});
  ASSERT_EQ(eng.next_event_time(), std::optional<sim::Tick>{50});
  eng.cancel(h);
  EXPECT_EQ(eng.next_event_time(), std::optional<sim::Tick>{70});
  eng.run();
  EXPECT_EQ(eng.next_event_time(), std::nullopt);
}

// ------------------------------------------------ EngineGroup machinery

TEST(EngineGroup, ZeroLookaheadRejected) {
  sim::EngineGroup g(2);
  EXPECT_THROW(g.connect(0, 1, 0), std::logic_error);
  EXPECT_THROW(g.connect(0, 0, 10), std::logic_error);  // self-channel
  EXPECT_THROW(g.connect(0, 2, 10), std::logic_error);  // out of range
}

TEST(EngineGroup, ScheduleRemoteEnforcesLookahead) {
  sim::EngineGroup g(2);
  g.connect(0, 1, 100);
  // No channel declared in this direction.
  EXPECT_THROW(g.schedule_remote(1, 0, 1000, [] {}), std::logic_error);
  // Violates the declared lookahead: at < now + 100.
  EXPECT_THROW(g.schedule_remote(0, 1, 99, [] {}), std::logic_error);
  // Exactly at the bound is legal.
  g.schedule_remote(0, 1, 100, [] {});
  g.run(1);
  EXPECT_EQ(g.stats().remote_events, 1u);
}

TEST(EngineGroup, CrossPartitionOrderingIsConservative) {
  // Partition 0 sends a burst; partition 1 has local events interleaved
  // between the arrival times. The dispatch order on partition 1 must be
  // globally (tick, import-order) sorted regardless of thread count: the
  // consumer never runs past min(inbound EOT) - 1, and imports merge at
  // exactly the tick they carry. (Fused-round counts are timing-dependent
  // at two threads, so only dispatch order is compared.)
  for (const int threads : {1, 2}) {
    sim::EngineGroup g(2);
    g.connect(0, 1, 50);
    std::vector<std::uint64_t> order;
    for (int i = 0; i < 8; ++i) {
      const sim::Tick at = 100 + 100 * static_cast<sim::Tick>(i);
      g.partition(1).schedule_at(at + 10, [&order, at] { order.push_back(at + 10); });
      g.partition(0).schedule_at(at, [&g, &order, at] {
        g.schedule_remote(0, 1, at + 50, [&order, at] { order.push_back(at + 50); });
      });
    }
    g.run(threads);
    ASSERT_EQ(order.size(), 16u) << "threads=" << threads;
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_LT(order[i - 1], order[i]) << "threads=" << threads;
    }
    EXPECT_GE(g.stats().rounds, 1u);  // at least the priming round ran
    EXPECT_EQ(g.stats().remote_events, 8u);
  }
}

TEST(EngineGroup, EotIsMonotoneUnderCancelledTimers) {
  // The published EOT must never move backwards, even when far-future
  // timers are retracted mid-run: a cancelled tombstone must not let the
  // idle null-message (min of local next event and horizon) dip below a
  // value already promised to the consumer.
  for (const int threads : {1, 2}) {
    sim::EngineGroup g(2);
    g.connect(0, 1, 25);
    sim::Engine& src = g.partition(0);
    auto wd1 = src.schedule_timer_at(5'000, [] { ADD_FAILURE(); });
    auto wd2 = src.schedule_timer_at(9'000, [] { ADD_FAILURE(); });
    // Sampled on partition 0's owner thread, the only EOT writer.
    std::vector<sim::Tick> samples;
    int delivered = 0;
    for (int i = 0; i < 12; ++i) {
      const sim::Tick at = 100 + 40 * static_cast<sim::Tick>(i);
      src.schedule_at(at, [&g, &samples, at] {
        samples.push_back(g.eot(0, 1));
        g.schedule_remote(0, 1, at + 25, [] {});
      });
    }
    g.partition(1).schedule_at(600, [&delivered] { ++delivered; });
    src.schedule_at(460, [&] {
      src.cancel(wd1);  // retract while idle EOT may be tracking them
      src.cancel(wd2);
    });
    g.run(threads);
    ASSERT_EQ(samples.size(), 12u) << "threads=" << threads;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_LE(samples[i - 1], samples[i]) << "threads=" << threads;
    }
    EXPECT_EQ(delivered, 1) << "threads=" << threads;
    EXPECT_EQ(g.stats().remote_events, 12u) << "threads=" << threads;
    // After the run the channel promise covers everything that happened.
    EXPECT_GE(g.eot(0, 1), g.now()) << "threads=" << threads;
  }
}

TEST(EngineGroup, SkipAheadCrossesEmptyStretchesInFewRounds) {
  // Events live millions of ticks apart with lookahead 1 — the worst case
  // for lookahead-sized windows, which would need ~1e6 rounds per gap.
  // The fused round's skip-ahead must jump each channel's EOT straight
  // past the global next event, so the whole run costs a handful of
  // rounds. Far-future watchdogs are armed on both partitions and
  // retracted by the last real event: cancelled tombstones must neither
  // fire nor stall the jump target.
  for (const int threads : {1, 2}) {
    sim::EngineGroup g(2);
    g.connect(0, 1, 1);
    g.connect(1, 0, 1);
    sim::Engine& a = g.partition(0);
    sim::Engine& b = g.partition(1);
    auto wd_a = a.schedule_timer_at(50'000'000, [] { ADD_FAILURE(); });
    auto wd_b = b.schedule_timer_at(50'000'000, [] { ADD_FAILURE(); });
    int got = 0;
    for (int i = 1; i <= 3; ++i) {
      const sim::Tick at = 1'000'000 * static_cast<sim::Tick>(i);
      a.schedule_at(at, [&g, &got, at] {
        g.schedule_remote(0, 1, at + 1, [&got] { ++got; });
      });
    }
    a.schedule_at(3'000'000, [&a, &wd_a] { a.cancel(wd_a); });
    b.schedule_at(3'000'001, [&b, &wd_b] { b.cancel(wd_b); });
    g.run(threads);
    EXPECT_EQ(got, 3) << "threads=" << threads;
    EXPECT_EQ(g.now(), 3'000'001u) << "threads=" << threads;
    // Serial execution has a deterministic round count; threaded runs can
    // only add rounds, and even those stay far below the ~3e6 a
    // window-per-lookahead protocol would need.
    EXPECT_LT(g.stats().rounds, 64u) << "threads=" << threads;
  }
}

TEST(EngineGroup, RingOverflowSpillsAndDelivers) {
  // One source event exports far more envelopes than the SPSC ring holds;
  // the producer-side spill must cap the published EOT at the earliest
  // spilled tick and feed everything back — in order — as the ring drains.
  // Serial (one worker, no concurrent consumer) so the spill is
  // deterministic: 3000 pushes inside one dispatch against a 1024 ring.
  constexpr int kExports = 3000;
  sim::EngineGroup g(2);
  g.connect(0, 1, 10);
  int delivered = 0;
  sim::Tick last = 0;
  g.partition(0).schedule_at(1, [&] {
    for (int i = 0; i < kExports; ++i) {
      const sim::Tick at = 11 + static_cast<sim::Tick>(i);
      g.schedule_remote(0, 1, at, [&delivered, &last, at] {
        EXPECT_GE(at, last);
        last = at;
        ++delivered;
      });
    }
  });
  g.run(1);
  EXPECT_EQ(delivered, kExports);
  EXPECT_EQ(g.stats().remote_events, static_cast<std::uint64_t>(kExports));
  EXPECT_GT(g.stats().ring_overflows, 0u);
}

TEST(EngineGroup, RingOverflowDuringAsyncDrainDelivers) {
  // The same burst with a live consumer thread: the consumer drains the
  // ring asynchronously while the producer is still spilling and
  // re-flushing, so envelopes arrive through an arbitrary ring/overflow
  // interleaving. Delivery must still be complete and in canonical
  // (tick, seq) order. How much actually spills depends on scheduling, so
  // the spill count is reported, not asserted.
  constexpr int kExports = 3000;
  sim::EngineGroup g(2);
  g.connect(0, 1, 10);
  int delivered = 0;
  sim::Tick last = 0;
  for (int burst = 0; burst < 3; ++burst) {
    g.partition(0).schedule_at(1 + burst, [&g, &delivered, &last, burst] {
      for (int i = 0; i < kExports; ++i) {
        const sim::Tick at =
            11 + static_cast<sim::Tick>(burst) + 3 * static_cast<sim::Tick>(i);
        g.schedule_remote(0, 1, at, [&delivered, &last, at] {
          EXPECT_GE(at, last);
          last = at;
          ++delivered;
        });
      }
    });
  }
  g.run(2);
  EXPECT_EQ(delivered, 3 * kExports);
  EXPECT_EQ(g.stats().remote_events,
            static_cast<std::uint64_t>(3 * kExports));
}

TEST(EngineGroup, RepeatedRunsReuseTheGroup) {
  sim::EngineGroup g(2);
  g.connect(0, 1, 5);
  g.connect(1, 0, 5);
  int fired = 0;
  g.partition(0).schedule_at(10, [&] {
    g.schedule_remote(0, 1, 20, [&] { ++fired; });
  });
  g.run(2);
  EXPECT_EQ(fired, 1);
  const sim::Tick t1 = g.now();
  // Second leg, scheduled after the first run drained.
  g.partition(1).schedule_at(t1 + 10, [&] {
    g.schedule_remote(1, 0, t1 + 20, [&] { ++fired; });
  });
  g.run(2);
  EXPECT_EQ(fired, 2);
  EXPECT_GT(g.now(), t1);
}

TEST(EngineGroup, FreeRunningPartitionHasNoInbound) {
  // Partition 0 only sends: it has no inbound channel, so it free-runs to
  // completion instead of marching in windows.
  sim::EngineGroup g(2);
  g.connect(0, 1, 1);  // minimal lookahead: worst case for round count
  int got = 0;
  for (int i = 0; i < 64; ++i) {
    g.partition(0).schedule_at(1000 * (1 + static_cast<sim::Tick>(i)), [&g, &got, i] {
      g.schedule_remote(0, 1, 1000 * (1 + static_cast<sim::Tick>(i)) + 1,
                        [&got] { ++got; });
    });
  }
  g.run(2);
  EXPECT_EQ(got, 64);
}

TEST(SpscRing, PushPopFifoAndFullness) {
  sim::SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  int v = -1;
  EXPECT_FALSE(ring.try_push(int{99}));  // full
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));  // empty
  EXPECT_TRUE(ring.empty());
}

// ------------------------------------- serial-vs-parallel equivalence

struct WorkloadOut {
  std::uint64_t stats_hash = 0;
  std::uint64_t trace_hash_a = 0;
  std::uint64_t trace_hash_b = 0;
  std::uint64_t dispatched = 0;
  double rtt_us = 0;
};

// Fig2/fig3-shaped: both boards generate receive traffic concurrently,
// then a ping-pong drives the cross-partition links. Per-node traces are
// attached so the equivalence check covers event-level ordering, not just
// final counters.
WorkloadOut run_testbed_workload(int threads, std::uint32_t msg_bytes,
                                 std::uint64_t n_msgs, int pp_iters) {
  sim::Trace ta(1 << 14), tbb(1 << 14);
  NodeConfig ca = make_5000_200_config();
  NodeConfig cb = make_3000_600_config();
  ca.trace = &ta;
  cb.trace = &tbb;
  Testbed tb(ca, cb, threads);
  proto::StackConfig sc;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);

  std::uint64_t bytes_a = 0, bytes_b = 0;
  const auto frags =
      harness::make_udp_fragments(msg_bytes, sc.ip_mtu, sc.udp_checksum);
  tb.a.map_kernel_vci(700);
  tb.b.map_kernel_vci(701);
  sa->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    bytes_a += d.size();
  });
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    bytes_b += d.size();
  });
  tb.a.rxp.start_generator_multi(700, frags, n_msgs, 0);
  tb.b.rxp.start_generator_multi(701, frags, n_msgs, 0);
  tb.run();

  const atm::Vci vci = tb.open_kernel_path();
  const harness::LatencyResult lat =
      harness::ping_pong(tb, *sa, *sb, vci, 512, pp_iters);

  WorkloadOut out;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (Node* n : {&tb.a, &tb.b}) {
    h = fnv(h, n->eng.dispatched());
    h = fnv(h, n->eng.now());
    h = fnv(h, n->rxp.cells_received());
    h = fnv(h, n->rxp.pdus_completed());
    h = fnv(h, n->rxp.push_batches());
    h = fnv(h, n->rxp.pushes_coalesced());
    h = fnv(h, n->driver.pdus_received());
    h = fnv(h, n->intc.raised());
  }
  h = fnv(h, bytes_a);
  h = fnv(h, bytes_b);
  h = fnv(h, lat.iterations);
  h = fnv(h, static_cast<std::uint64_t>(lat.rtt_us_mean * 1e3));
  out.stats_hash = h;
  out.trace_hash_a = trace_hash(ta);
  out.trace_hash_b = trace_hash(tbb);
  out.dispatched = tb.dispatched();
  out.rtt_us = lat.rtt_us_mean;
  EXPECT_EQ(bytes_a, static_cast<std::uint64_t>(msg_bytes) * n_msgs);
  EXPECT_EQ(bytes_b, static_cast<std::uint64_t>(msg_bytes) * n_msgs);
  return out;
}

TEST(ParallelEquivalence, Fig2Fig3WorkloadBitIdenticalAcrossThreadCounts) {
  // Simulation-visible state — stats, per-node traces, dispatch counts,
  // measured RTTs — must be bit-identical. Fused-round and spill counts
  // are deliberately absent: they describe how the OS interleaved the
  // workers, not what the simulation computed.
  const WorkloadOut serial = run_testbed_workload(1, 8 * 1024, 12, 8);
  const WorkloadOut parallel = run_testbed_workload(2, 8 * 1024, 12, 8);
  EXPECT_EQ(serial.stats_hash, parallel.stats_hash);
  EXPECT_EQ(serial.trace_hash_a, parallel.trace_hash_a);
  EXPECT_EQ(serial.trace_hash_b, parallel.trace_hash_b);
  EXPECT_EQ(serial.dispatched, parallel.dispatched);
  EXPECT_EQ(serial.rtt_us, parallel.rtt_us);
  EXPECT_GT(serial.dispatched, 3000u);  // the workload is non-trivial
}

// Four partitions in a ring (both directions), cascading remote traffic:
// every dispatch is logged as (tick, tag) on the owning worker's thread,
// and the concatenated logs are hashed. The Testbed tops out at two
// partitions, so this is where >2-thread schedules get their equivalence
// coverage.
std::uint64_t four_partition_fingerprint(int threads) {
  constexpr std::size_t kParts = 4;
  sim::EngineGroup g(kParts);
  for (std::size_t p = 0; p < kParts; ++p) {
    g.connect(p, (p + 1) % kParts, 7);
    g.connect(p, (p + 3) % kParts, 13);
  }
  // Thread-confined: logs[p] is touched only by partition p's events.
  std::array<std::vector<std::pair<sim::Tick, std::uint64_t>>, kParts> logs;
  // Each arrival logs itself, then forwards clockwise (always) and
  // counter-clockwise (on a tag-derived subset) until its hop budget is
  // spent. Runs on the destination's thread, so the re-send is a legal
  // single-producer push on the destination's outbound channels.
  std::function<void(std::size_t, sim::Tick, std::uint64_t, int)> arrive =
      [&](std::size_t p, sim::Tick at, std::uint64_t tag, int hops) {
        logs[p].push_back({at, tag});
        if (hops == 0) return;
        const std::size_t cw = (p + 1) % kParts;
        const sim::Tick t_cw = at + 7 + tag % 5;
        g.schedule_remote(p, cw, t_cw, [&arrive, cw, t_cw, tag, hops] {
          arrive(cw, t_cw, tag * 31 + 1, hops - 1);
        });
        if (tag % 3 == 0) {
          const std::size_t ccw = (p + 3) % kParts;
          const sim::Tick t_ccw = at + 13;
          g.schedule_remote(p, ccw, t_ccw, [&arrive, ccw, t_ccw, tag, hops] {
            arrive(ccw, t_ccw, tag * 31 + 2, hops - 1);
          });
        }
      };
  for (std::size_t p = 0; p < kParts; ++p) {
    for (int k = 0; k < 10; ++k) {
      const sim::Tick at = 20 + 15 * static_cast<sim::Tick>(k) +
                           static_cast<sim::Tick>(p);
      const std::uint64_t tag = 1000 + 100 * p + static_cast<std::uint64_t>(k);
      g.partition(p).schedule_at(at, [&arrive, p, at, tag] {
        arrive(p, at, tag, 3);
      });
    }
  }
  g.run(threads);
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t total = 0;
  for (std::size_t p = 0; p < kParts; ++p) {
    for (const auto& [at, tag] : logs[p]) {
      h = fnv(h, at);
      h = fnv(h, tag);
    }
    total += logs[p].size();
  }
  EXPECT_GT(total, 40u * 4u) << "threads=" << threads;  // cascades fired
  return fnv(h, total);
}

TEST(ParallelEquivalence, FourPartitionsBitIdenticalUpToFourThreads) {
  const std::uint64_t serial = four_partition_fingerprint(1);
  for (const int threads : {2, 3, 4}) {
    EXPECT_EQ(serial, four_partition_fingerprint(threads))
        << "threads=" << threads;
  }
}

TEST(ParallelEquivalence, RunIsDeterministicPerThreadCount) {
  const WorkloadOut one = run_testbed_workload(2, 4 * 1024, 6, 4);
  const WorkloadOut two = run_testbed_workload(2, 4 * 1024, 6, 4);
  EXPECT_EQ(one.stats_hash, two.stats_hash);
  EXPECT_EQ(one.trace_hash_a, two.trace_hash_a);
  EXPECT_EQ(one.trace_hash_b, two.trace_hash_b);
}

TEST(ParallelEquivalence, ShardedSpansAndMetricsUnderTwoThreads) {
  // The sharded-observability contract under real partition threads (this
  // binary runs under TSan in CI): each node records spans and metrics on
  // its own worker thread; after run() drains, aggregation on the main
  // thread sees a consistent union, and 2-thread results equal 1-thread.
  auto run_once = [](int threads) {
    obs::PduSpans spans_a, spans_b;
    NodeConfig ca = make_5000_200_config();
    NodeConfig cb = make_3000_600_config();
    ca.spans = &spans_a;
    cb.spans = &spans_b;
    Testbed tb(ca, cb, threads);
    tb.group.enable_profiling();
    proto::StackConfig sc;
    sc.mode = proto::StackMode::kRawAtm;
    auto sa = tb.a.make_stack(sc);
    auto sb = tb.b.make_stack(sc);
    const atm::Vci vci = tb.open_kernel_path();
    harness::ping_pong(tb, *sa, *sb, vci, 2048, 12);

    // Aggregate the two shards by name: counts sum, histograms merge.
    obs::Registry ra, rb;
    spans_a.register_into(ra, "span.");
    spans_b.register_into(rb, "span.");
    const obs::Snapshot s = obs::aggregate({&ra, &rb});
    std::uint64_t e2e_count = 0, e2e_sum = 0;
    for (const auto& h : s.hists) {
      if (h.name == "span.e2e") {
        e2e_count = h.count;
        e2e_sum = h.sum;
      }
    }
    // Profiling ran on the worker threads and merged cleanly.
    const sim::EngineGroup::PhaseProfile prof = tb.group.profile();
    EXPECT_GT(prof.dispatch_ns.count(), 0u);
    return std::pair<std::uint64_t, std::uint64_t>{e2e_count, e2e_sum};
  };

  const auto serial = run_once(1);
  const auto parallel = run_once(2);
  EXPECT_EQ(serial.first, 24u);  // 12 round trips = 24 PDUs
  // Span stamps are simulated ticks, so the aggregated distribution is
  // bit-identical across thread counts.
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelEquivalence, LoneWorkerNeverEntersRetryBackoff) {
  // One worker has no peer to wait for: every pass that makes no progress
  // must go straight to the fused round, never through the cpu_relax
  // retry backoff, and the dispatch order must not notice.
  auto run_once = [](int threads, std::uint64_t* stalls) {
    sim::Trace ta(1 << 14), tbb(1 << 14);
    NodeConfig ca = make_5000_200_config();
    NodeConfig cb = make_5000_200_config();
    ca.trace = &ta;
    cb.trace = &tbb;
    Testbed tb(ca, cb, threads);
    tb.group.enable_profiling();
    proto::StackConfig sc;
    auto sa = tb.a.make_stack(sc);
    auto sb = tb.b.make_stack(sc);
    const atm::Vci vci = tb.open_kernel_path();
    const harness::LatencyResult lat =
        harness::ping_pong(tb, *sa, *sb, vci, 1, 16);
    EXPECT_EQ(lat.iterations, 16u) << "threads=" << threads;
    const sim::EngineGroup::PhaseProfile prof = tb.group.profile();
    EXPECT_GT(prof.barrier_ns.count(), 0u) << "threads=" << threads;
    *stalls = prof.stall_ns.count();
    return fnv(trace_hash(ta), trace_hash(tbb));
  };
  std::uint64_t serial_stalls = 0, parallel_stalls = 0;
  const std::uint64_t serial = run_once(1, &serial_stalls);
  EXPECT_EQ(serial_stalls, 0u);
  EXPECT_EQ(serial, run_once(2, &parallel_stalls));
}

TEST(ParallelEquivalence, SharedTraceRejectedForMultiThreadRuns) {
  sim::Trace shared;
  NodeConfig ca = make_5000_200_config();
  NodeConfig cb = make_5000_200_config();
  ca.trace = &shared;
  cb.trace = &shared;
  Testbed tb(ca, cb);  // fine at the default 1 thread
  EXPECT_THROW(tb.set_threads(2), std::logic_error);
  ca.trace = nullptr;
  cb.trace = nullptr;
  Testbed tb2(ca, cb, 2);  // per-node (here: absent) traces are fine
  EXPECT_EQ(tb2.threads(), 2);
}

}  // namespace
