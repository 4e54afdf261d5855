// Unit tests for the discrete-event engine, resources, RNG and stats.
#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "sim/engine.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"

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

TEST(Histogram, QuantilesAndClamping) {
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  h.add(-5.0);   // clamps into first bucket
  h.add(500.0);  // clamps into last bucket
  EXPECT_EQ(h.summary().count(), 102u);
  EXPECT_NEAR(h.quantile(0.5), 45.0, 10.0);
  EXPECT_GT(h.counts().front(), 10u);
  EXPECT_GT(h.counts().back(), 10u);
}

}  // namespace
}  // namespace osiris::sim
