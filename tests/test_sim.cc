// Unit tests for the discrete-event engine, the partitioned EngineGroup,
// resources, RNG and stats.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/spans.h"
#include "osiris/harness.h"
#include "osiris/node.h"
#include "sim/engine.h"
#include "sim/group.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace osiris::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(ns(1), 1000u);
  EXPECT_EQ(us(1), 1000000u);
  EXPECT_EQ(ms(1), 1000000000u);
  EXPECT_DOUBLE_EQ(to_us(us(123)), 123.0);
  EXPECT_EQ(cycle(25e6), 40000u);  // 40 ns at 25 MHz
  EXPECT_EQ(cycles(10, 25e6), 400000u);
}

TEST(Time, Mbps) {
  // 100 bytes in 1 us = 800 Mbps.
  EXPECT_DOUBLE_EQ(mbps(100, us(1)), 800.0);
  EXPECT_DOUBLE_EQ(mbps(100, 0), 0.0);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(us(3), [&] { order.push_back(3); });
  eng.schedule(us(1), [&] { order.push_back(1); });
  eng.schedule(us(2), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), us(3));
  EXPECT_EQ(eng.dispatched(), 3u);
}

TEST(Engine, EqualTimestampsAreFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule(us(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleEvents) {
  Engine eng;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) eng.schedule(us(1), chain);
  };
  eng.schedule(0, chain);
  eng.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(eng.now(), us(4));
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine eng;
  eng.schedule(us(1), [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_at(0, [] {}), std::logic_error);
}

TEST(Engine, RunUntilLeavesLaterEvents) {
  Engine eng;
  int fired = 0;
  eng.schedule(us(1), [&] { ++fired; });
  eng.schedule(us(10), [&] { ++fired; });
  eng.run_until(us(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), us(5));
  EXPECT_EQ(eng.pending(), 1u);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine eng;
  EXPECT_FALSE(eng.step());
}

TEST(Resource, SerializesReservations) {
  Engine eng;
  Resource r(eng, "r");
  EXPECT_EQ(r.reserve(us(10)), us(10));
  EXPECT_EQ(r.reserve(us(5)), us(15));  // queued behind the first
  EXPECT_EQ(r.free_at(), us(15));
  EXPECT_TRUE(r.busy());
}

TEST(Resource, ReserveAtRespectsFrom) {
  Engine eng;
  Resource r(eng, "r");
  EXPECT_EQ(r.reserve_at(us(100), us(10)), us(110));
  // An earlier request fits in the gap BEFORE the future booking — the
  // calendar models per-transaction bus arbitration, not call order.
  EXPECT_EQ(r.reserve_at(us(50), us(10)), us(60));
  // A request that does not fit in the gap queues behind.
  EXPECT_EQ(r.reserve_at(us(55), us(50)), us(160));
  EXPECT_EQ(r.busy_total(), us(70));
  EXPECT_EQ(r.reservations(), 3u);
}

TEST(Resource, CalendarFillsExactGaps) {
  Engine eng;
  Resource r(eng, "r");
  r.reserve_at(us(10), us(10));  // [10,20)
  r.reserve_at(us(40), us(10));  // [40,50)
  EXPECT_EQ(r.reserve_at(us(20), us(20)), us(40));  // exact fit [20,40)
  EXPECT_EQ(r.reserve_at(us(0), us(10)), us(10));   // exact fit [0,10)
  EXPECT_EQ(r.reserve_at(us(0), us(5)), us(55));    // everything full to 50
}

TEST(Resource, UtilizationTracksBusyFraction) {
  Engine eng;
  Resource r(eng, "r");
  r.reserve(us(10));
  eng.schedule(us(20), [] {});
  eng.run();
  EXPECT_DOUBLE_EQ(r.utilization(), 0.5);
}

// The std::map calendar sim::Resource kept before the flat vector: the
// reference the differential test below holds the flat calendar to.
class MapCalendar {
 public:
  explicit MapCalendar(const Engine& eng) : eng_(&eng) {}

  Tick reserve_at(Tick from, Duration hold) {
    for (auto it = busy_.begin(); it != busy_.end() && it->second < eng_->now();) {
      it = busy_.erase(it);
    }
    Tick start = from;
    if (hold > 0) {
      auto it = busy_.upper_bound(start);
      if (it != busy_.begin()) {
        auto prev = std::prev(it);
        if (prev->second > start) start = prev->second;
      }
      while (it != busy_.end() && it->first < start + hold) {
        start = std::max(start, it->second);
        ++it;
      }
      busy_.emplace(start, start + hold);
    }
    busy_until = std::max(busy_until, start + hold);
    busy_total += hold;
    wait_total += start - from;
    ++reservations;
    return start + hold;
  }

  Tick busy_until = 0;
  Duration busy_total = 0;
  Duration wait_total = 0;
  std::uint64_t reservations = 0;

 private:
  const Engine* eng_;
  std::map<Tick, Tick> busy_;  // start -> end
};

TEST(Resource, FlatCalendarMatchesMapCalendar) {
  // Seeded random bookings against the map reference: mostly near-term
  // requests, some far-future ones that later near-term requests must
  // backfill around, zero holds, and engine time advanced by dispatched
  // events so the consumed prefix is pruned and compacted many times.
  Engine eng;
  Resource r(eng, "r");
  MapCalendar ref(eng);
  Rng rng(41);
  for (int step = 0; step < 20000; ++step) {
    if (rng.chance(0.3)) {
      eng.schedule_at(eng.now() + rng.below(60), [] {});
      eng.run();
      continue;
    }
    const Tick from =
        eng.now() + (rng.chance(0.1) ? rng.below(3000) : rng.below(40));
    const Duration hold = rng.chance(0.1) ? 0 : 1 + rng.below(16);
    ASSERT_EQ(r.reserve_at(from, hold), ref.reserve_at(from, hold))
        << "step " << step;
    ASSERT_EQ(r.busy_total(), ref.busy_total) << "step " << step;
    ASSERT_EQ(r.wait_total(), ref.wait_total) << "step " << step;
    ASSERT_EQ(r.free_at(), ref.busy_until) << "step " << step;
    ASSERT_EQ(r.reservations(), ref.reservations) << "step " << step;
  }
  EXPECT_GT(r.wait_total(), 0u);  // requests really did queue and backfill
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, ChanceExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(Summary, Moments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.118, 1e-3);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// ------------------------------------------------ engine batch dispatch

TEST(StepTick, FiresWholeTickIncludingSameTickFollowups) {
  Engine eng;
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
  Engine eng;
  auto h = eng.schedule_timer_at(50, [] {});
  eng.schedule_at(70, [] {});
  ASSERT_EQ(eng.next_event_time(), std::optional<Tick>{50});
  eng.cancel(h);
  EXPECT_EQ(eng.next_event_time(), std::optional<Tick>{70});
  eng.run();
  EXPECT_EQ(eng.next_event_time(), std::nullopt);
}

// ------------------------------------------------ EngineGroup

TEST(EngineGroup, ZeroLookaheadRejected) {
  EngineGroup g(2);
  EXPECT_THROW(g.connect(0, 1, 0), std::logic_error);
  EXPECT_THROW(g.connect(0, 0, 10), std::logic_error);  // self-channel
  EXPECT_THROW(g.connect(0, 2, 10), std::logic_error);  // out of range
}

TEST(EngineGroup, ScheduleRemoteEnforcesLookahead) {
  EngineGroup g(2);
  g.connect(0, 1, 100);
  // No channel declared in this direction.
  EXPECT_THROW(g.schedule_remote(1, 0, 1000, [] {}), std::logic_error);
  // Violates the declared lookahead: at < now + 100.
  EXPECT_THROW(g.schedule_remote(0, 1, 99, [] {}), std::logic_error);
  // An empty event has nothing to deliver.
  EXPECT_THROW(g.schedule_remote(0, 1, 100, RemoteEvent{}), std::logic_error);
  // Exactly at the bound is legal.
  g.schedule_remote(0, 1, 100, [] {});
  g.run();
  EXPECT_EQ(g.stats().remote_events, 1u);
}

TEST(EngineGroup, CrossPartitionOrderingIsConservative) {
  // Partition 0 sends a burst; partition 1 has local events interleaved
  // between the arrival times. The dispatch order on partition 1 must be
  // globally (tick, import-order) sorted: imports merge at exactly the
  // tick they carry.
  EngineGroup g(2);
  g.connect(0, 1, 50);
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 8; ++i) {
    const Tick at = 100 + 100 * static_cast<Tick>(i);
    g.partition(1).schedule_at(at + 10, [&order, at] { order.push_back(at + 10); });
    g.partition(0).schedule_at(at, [&g, &order, at] {
      g.schedule_remote(0, 1, at + 50, [&order, at] { order.push_back(at + 50); });
    });
  }
  g.run();
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
  }
  EXPECT_EQ(g.stats().remote_events, 8u);
}

TEST(EngineGroup, SkipAheadCrossesEmptyStretchesInFewRounds) {
  // Events live millions of ticks apart with lookahead 1. The merge jumps
  // straight to the next tick anything can dispatch, so the gaps cost
  // nothing. Far-future watchdogs are armed on both partitions and
  // retracted by the last real event: cancelled tombstones must neither
  // fire nor hold the clocks back when the run equalizes them.
  EngineGroup g(2);
  g.connect(0, 1, 1);
  g.connect(1, 0, 1);
  Engine& a = g.partition(0);
  Engine& b = g.partition(1);
  auto wd_a = a.schedule_timer_at(50'000'000, [] { ADD_FAILURE(); });
  auto wd_b = b.schedule_timer_at(50'000'000, [] { ADD_FAILURE(); });
  int got = 0;
  for (int i = 1; i <= 3; ++i) {
    const Tick at = 1'000'000 * static_cast<Tick>(i);
    a.schedule_at(at, [&g, &got, at] {
      g.schedule_remote(0, 1, at + 1, [&got] { ++got; });
    });
  }
  a.schedule_at(3'000'000, [&a, &wd_a] { a.cancel(wd_a); });
  b.schedule_at(3'000'001, [&b, &wd_b] { b.cancel(wd_b); });
  g.run();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(g.now(), 3'000'001u);
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(g.stats().dispatched, 8u);  // 4 on a, 4 on b (3 imports + 1)
}

TEST(EngineGroup, RepeatedRunsReuseTheGroup) {
  EngineGroup g(2);
  g.connect(0, 1, 5);
  g.connect(1, 0, 5);
  int fired = 0;
  g.partition(0).schedule_at(10, [&] {
    g.schedule_remote(0, 1, 20, [&] { ++fired; });
  });
  g.run();
  EXPECT_EQ(fired, 1);
  const Tick t1 = g.now();
  // Second leg, scheduled after the first run drained.
  g.partition(1).schedule_at(t1 + 10, [&] {
    g.schedule_remote(1, 0, t1 + 20, [&] { ++fired; });
  });
  g.run();
  EXPECT_EQ(fired, 2);
  EXPECT_GT(g.now(), t1);
}

TEST(EngineGroup, FreeRunningPartitionHasNoInbound) {
  // Partition 0 only sends: it has no inbound channel, and every one of
  // its exports still lands on partition 1.
  EngineGroup g(2);
  g.connect(0, 1, 1);
  int got = 0;
  for (int i = 0; i < 64; ++i) {
    g.partition(0).schedule_at(1000 * (1 + static_cast<Tick>(i)), [&g, &got, i] {
      g.schedule_remote(0, 1, 1000 * (1 + static_cast<Tick>(i)) + 1,
                        [&got] { ++got; });
    });
  }
  g.run();
  EXPECT_EQ(got, 64);
}

// ------------------------------------- dispatch order pinned to constants
//
// The constants below were recorded from the threaded asynchronous-EOT
// engine this serial merge replaced, so they prove the merge keeps every
// partition's dispatch order: per-node traces, stats and RTTs. The
// ParallelEquivalence names date from that engine, whose thread counts
// these tests used to compare.

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

std::uint64_t trace_hash(const Trace& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const TraceEvent& e : t.events()) {
    h = fnv(h, e.at);
    h = fnv_str(h, e.component);
    h = fnv_str(h, e.event);
    h = fnv(h, e.a);
    h = fnv(h, e.b);
  }
  return fnv(h, t.recorded());
}

struct WorkloadOut {
  std::uint64_t stats_hash = 0;
  std::uint64_t trace_hash_a = 0;
  std::uint64_t trace_hash_b = 0;
  std::uint64_t dispatched = 0;
  double rtt_us = 0;
};

// Fig2/fig3-shaped: both boards generate receive traffic concurrently,
// then a ping-pong drives the cross-partition links. Per-node traces are
// attached so the check covers event-level ordering, not just final
// counters.
WorkloadOut run_testbed_workload(std::uint32_t msg_bytes, std::uint64_t n_msgs,
                                 int pp_iters) {
  Trace ta(1 << 14), tbb(1 << 14);
  NodeConfig ca = make_5000_200_config();
  NodeConfig cb = make_3000_600_config();
  ca.trace = &ta;
  cb.trace = &tbb;
  Testbed tb(ca, cb);
  proto::StackConfig sc;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);

  std::uint64_t bytes_a = 0, bytes_b = 0;
  const auto frags =
      harness::make_udp_fragments(msg_bytes, sc.ip_mtu, sc.udp_checksum);
  tb.a.map_kernel_vci(700);
  tb.b.map_kernel_vci(701);
  sa->set_sink([&](Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    bytes_a += d.size();
  });
  sb->set_sink([&](Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
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
  const WorkloadOut out = run_testbed_workload(8 * 1024, 12, 8);
  EXPECT_EQ(out.stats_hash, 0x94acabd2a3ab5f57ull);
  EXPECT_EQ(out.trace_hash_a, 0xf5d0697baf910b5full);
  EXPECT_EQ(out.trace_hash_b, 0x3e3f935cba873d0eull);
  EXPECT_EQ(out.dispatched, 5274u);
  EXPECT_DOUBLE_EQ(out.rtt_us, 481.33142399999997);
}

TEST(ParallelEquivalence, RunIsDeterministicPerThreadCount) {
  // A smaller run, twice: each must match the pinned values.
  for (int run = 0; run < 2; ++run) {
    const WorkloadOut out = run_testbed_workload(4 * 1024, 6, 4);
    EXPECT_EQ(out.stats_hash, 0x8061241dad1990bfull) << "run " << run;
    EXPECT_EQ(out.trace_hash_a, 0x44eeac6a5dae0e62ull) << "run " << run;
    EXPECT_EQ(out.trace_hash_b, 0x88d40b9a61ae7d0dull) << "run " << run;
    EXPECT_EQ(out.dispatched, 1448u) << "run " << run;
    EXPECT_DOUBLE_EQ(out.rtt_us, 481.22017400000004) << "run " << run;
  }
}

// Four partitions in a ring (both directions), cascading remote traffic:
// every dispatch is logged as (tick, tag) per partition, and the
// concatenated logs are hashed. The Testbed tops out at two partitions,
// so this is where a wider merge gets its coverage.
std::uint64_t four_partition_fingerprint() {
  constexpr std::size_t kParts = 4;
  EngineGroup g(kParts);
  for (std::size_t p = 0; p < kParts; ++p) {
    g.connect(p, (p + 1) % kParts, 7);
    g.connect(p, (p + 3) % kParts, 13);
  }
  std::array<std::vector<std::pair<Tick, std::uint64_t>>, kParts> logs;
  // Each arrival logs itself, then forwards clockwise (always) and
  // counter-clockwise (on a tag-derived subset) until its hop budget is
  // spent.
  std::function<void(std::size_t, Tick, std::uint64_t, int)> arrive =
      [&](std::size_t p, Tick at, std::uint64_t tag, int hops) {
        logs[p].push_back({at, tag});
        if (hops == 0) return;
        const std::size_t cw = (p + 1) % kParts;
        const Tick t_cw = at + 7 + tag % 5;
        g.schedule_remote(p, cw, t_cw, [&arrive, cw, t_cw, tag, hops] {
          arrive(cw, t_cw, tag * 31 + 1, hops - 1);
        });
        if (tag % 3 == 0) {
          const std::size_t ccw = (p + 3) % kParts;
          const Tick t_ccw = at + 13;
          g.schedule_remote(p, ccw, t_ccw, [&arrive, ccw, t_ccw, tag, hops] {
            arrive(ccw, t_ccw, tag * 31 + 2, hops - 1);
          });
        }
      };
  for (std::size_t p = 0; p < kParts; ++p) {
    for (int k = 0; k < 10; ++k) {
      const Tick at = 20 + 15 * static_cast<Tick>(k) + static_cast<Tick>(p);
      const std::uint64_t tag = 1000 + 100 * p + static_cast<std::uint64_t>(k);
      g.partition(p).schedule_at(at, [&arrive, p, at, tag] {
        arrive(p, at, tag, 3);
      });
    }
  }
  g.run();
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t total = 0;
  for (std::size_t p = 0; p < kParts; ++p) {
    for (const auto& [at, tag] : logs[p]) {
      h = fnv(h, at);
      h = fnv(h, tag);
    }
    total += logs[p].size();
  }
  EXPECT_GT(total, 40u * 4u);  // cascades fired
  return fnv(h, total);
}

TEST(ParallelEquivalence, FourPartitionsBitIdenticalUpToFourThreads) {
  EXPECT_EQ(four_partition_fingerprint(), 0xdd86d1e18262018eull);
}

TEST(ParallelEquivalence, ShardedSpansAndMetricsUnderTwoThreads) {
  // Each node records spans into its own PduSpans; after run() drains,
  // aggregating the two shards by name gives the union, and a second run
  // reproduces it exactly.
  auto run_once = [] {
    obs::PduSpans spans_a, spans_b;
    NodeConfig ca = make_5000_200_config();
    NodeConfig cb = make_3000_600_config();
    ca.spans = &spans_a;
    cb.spans = &spans_b;
    Testbed tb(ca, cb);
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
    EXPECT_GT(tb.group.profile().dispatch_ns.count(), 0u);
    return std::pair<std::uint64_t, std::uint64_t>{e2e_count, e2e_sum};
  };

  const auto first = run_once();
  EXPECT_EQ(first.first, 24u);  // 12 round trips = 24 PDUs
  // Span stamps are simulated ticks, so the aggregate repeats exactly.
  EXPECT_EQ(first, run_once());
}

}  // namespace
}  // namespace osiris::sim
