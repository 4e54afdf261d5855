// Flow-table subsystem tests: the cache-line-bucketed open-addressed
// table behind early demultiplexing (collision handling, incremental
// rehash, slab-order iteration), the flat OpenMap it pairs with, and the
// board-level guarantees that ride on them — quarantine state surviving
// growth, unmapping a VCI mid-reassembly, and schedule determinism with
// 10^5 mapped VCIs.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "flow/openmap.h"
#include "flow/table.h"
#include "osiris/node.h"

namespace osiris {
namespace {

struct Val {
  std::uint32_t payload = 0;
  std::uint32_t flags = 0;
};

// ------------------------------------------------------------ FlowTable

TEST(FlowTable, CollisionsFillBucketThenGrowthKeepsEveryEntry) {
  // A 1-bucket table funnels every key into the same 8-way bucket; the
  // 9th insert finds the target bucket full and must grow instead of
  // dropping or looping.
  flow::FlowTable<Val> t(/*initial_buckets=*/1);
  for (std::uint32_t k = 1; k <= 32; ++k) {
    auto [v, fresh] = t.insert(k);
    ASSERT_TRUE(fresh) << k;
    v->payload = k * 100;
  }
  EXPECT_EQ(t.size(), 32u);
  EXPECT_GT(t.stats().rehashes, 0u);
  for (std::uint32_t k = 1; k <= 32; ++k) {
    Val* v = t.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(v->payload, k * 100);
  }
  EXPECT_EQ(t.find(999), nullptr);
}

TEST(FlowTable, IncrementalRehashUnderLiveTraffic) {
  // Inserts force several growths while finds and erases interleave, so
  // lookups constantly hit keys on both sides of the migration cursor.
  flow::FlowTable<Val> t;
  std::set<std::uint32_t> live;
  std::uint32_t next = 1;
  for (int round = 0; round < 2000; ++round) {
    const std::uint32_t k = next++;
    t.insert(k).first->payload = k;
    live.insert(k);
    if (round % 3 == 0 && live.size() > 10) {
      const std::uint32_t victim = *live.begin();
      EXPECT_TRUE(t.erase(victim));
      live.erase(victim);
    }
    // Every live key must be findable mid-migration.
    if (round % 97 == 0) {
      for (const std::uint32_t v : live) {
        Val* p = t.find(v);
        ASSERT_NE(p, nullptr) << "round " << round << " key " << v;
        EXPECT_EQ(p->payload, v);
      }
    }
  }
  EXPECT_EQ(t.size(), live.size());
  EXPECT_GT(t.stats().rehashes, 1u);
  EXPECT_GT(t.stats().migrated_buckets, 0u);
}

TEST(FlowTable, EntryFlagsSurviveRehash) {
  // Entries live in the slab; growth moves bucket metadata only, so a bit
  // set before several rehashes must read back identically after them
  // (the board's quarantine bit relies on exactly this).
  flow::FlowTable<Val> t;
  t.insert(7).first->flags = 0x2;  // "quarantined"
  for (std::uint32_t k = 1000; k < 5000; ++k) t.insert(k);
  EXPECT_GT(t.stats().rehashes, 0u);
  Val* v = t.find(7);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->flags, 0x2u);
}

TEST(FlowTable, ForEachWalksSlabOrderAndSupportsErase) {
  // Iteration order is slab (insertion) order, independent of the hash —
  // the determinism anchor for run-to-run fingerprints.
  flow::FlowTable<Val> t;
  const std::uint32_t keys[] = {900001, 3, 500, 123456, 42};
  for (const std::uint32_t k : keys) t.insert(k);
  std::vector<std::uint32_t> seen;
  t.for_each([&](std::uint32_t k, Val&) { seen.push_back(k); });
  EXPECT_EQ(seen, std::vector<std::uint32_t>(std::begin(keys),
                                             std::end(keys)));
  // Erasing the current key mid-iteration is allowed.
  t.for_each([&](std::uint32_t k, Val&) {
    if (k == 500 || k == 42) t.erase(k);
  });
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.find(500), nullptr);
  ASSERT_NE(t.find(123456), nullptr);
}

TEST(FlowTable, FreedSlotsAreReusedWithoutGrowth) {
  flow::FlowTable<Val> t;
  for (std::uint32_t k = 1; k <= 64; ++k) t.insert(k);
  const std::size_t cap = t.capacity();
  for (int round = 0; round < 500; ++round) {
    const auto k = static_cast<std::uint32_t>(1000 + round);
    t.insert(k);
    t.erase(k);
  }
  EXPECT_EQ(t.size(), 64u);
  EXPECT_EQ(t.capacity(), cap) << "churn at stable size must not grow";
}

// -------------------------------------------------------------- OpenMap

TEST(OpenMap, EmplaceFindEraseAndTombstoneReuse) {
  flow::OpenMap<Val> m;
  auto [v, fresh] = m.emplace(0x12345678ULL);
  ASSERT_TRUE(fresh);
  v->payload = 9;
  auto [v2, fresh2] = m.emplace(0x12345678ULL);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(v2->payload, 9u);
  EXPECT_TRUE(m.erase(0x12345678ULL));
  EXPECT_EQ(m.find(0x12345678ULL), nullptr);
  // Reinserting after erase lands on a fresh default-constructed value.
  auto [v3, fresh3] = m.emplace(0x12345678ULL);
  ASSERT_TRUE(fresh3);
  EXPECT_EQ(v3->payload, 0u);
}

TEST(OpenMap, SurvivesGrowthAndEraseIf) {
  flow::OpenMap<Val> m;
  for (std::uint64_t k = 1; k <= 3000; ++k) m.emplace(k).first->payload = 1;
  EXPECT_EQ(m.size(), 3000u);
  for (std::uint64_t k = 1; k <= 3000; ++k) {
    ASSERT_NE(m.find(k), nullptr) << k;
  }
  const std::size_t removed =
      m.erase_if([](std::uint64_t k, const Val&) { return k % 2 == 0; });
  EXPECT_EQ(removed, 1500u);
  EXPECT_EQ(m.size(), 1500u);
  EXPECT_EQ(m.find(2), nullptr);
  EXPECT_NE(m.find(3), nullptr);
}

// ------------------------------------------------- board-level behavior

struct Fixture {
  sim::Engine eng;
  std::unique_ptr<Node> node;

  explicit Fixture(NodeConfig cfg = make_3000_600_config()) {
    cfg.link.base_delay_us = 1.0;
    node = std::make_unique<Node>(eng, cfg);
    node->out.set_sink(
        [this](int lane, const atm::Cell& c) { node->rxp.on_cell(lane, c); });
  }
};

TEST(FlowBoard, QuarantineSurvivesTableGrowth) {
  // Quarantine one VCI, then map thousands more (several rehashes), then
  // offer traffic on the quarantined VCI: every cell must still drop.
  Fixture f;
  Node& n = *f.node;
  n.rxp.quarantine_vci(77);
  for (atm::Vci v = 100000; v < 105000; ++v) n.map_kernel_vci(v);
  EXPECT_GT(n.rxp.flow_stats().rehashes, 0u);

  std::vector<std::uint8_t> pdu(256, 0xAB);
  n.rxp.start_generator(77, pdu, 5, 0);
  f.eng.run();
  EXPECT_GT(n.rxp.quarantine_drops(), 0u);
  EXPECT_EQ(n.rxp.pdus_completed(), 0u);
}

TEST(FlowBoard, UnmapDuringReassemblyDropsCleanlyAndReleasesState) {
  // A large PDU is in flight when its VCI is unmapped: the tail cells must
  // be dropped as unmapped traffic (no delivery, no crash) and every held
  // buffer must be released once the abort settles.
  Fixture f;
  Node& n = *f.node;
  const atm::Vci vci = 300;
  n.map_kernel_vci(vci);

  std::uint64_t delivered = 0;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) {
    ++delivered;
    return at;
  });

  std::vector<std::uint8_t> payload(20000, 0x5C);  // ~420 cells
  const mem::VirtAddr va =
      n.kernel_space.alloc(static_cast<std::uint32_t>(payload.size()), 41);
  n.kernel_space.write(va, payload);
  const auto sc =
      n.kernel_space.scatter(va, static_cast<std::uint32_t>(payload.size()));
  n.driver.send(f.eng.now(), vci, sc);
  // Unmap roughly mid-PDU (the transfer spans hundreds of microseconds).
  f.eng.schedule(sim::us(60), [&] { n.rxp.unmap_vci(vci); });
  f.eng.run();

  EXPECT_EQ(delivered, 0u);
  EXPECT_GT(n.rxp.cells_bad_header(), 0u) << "tail cells land unmapped";
  EXPECT_EQ(n.rxp.vci_buffers_held(vci), 0u);
}

TEST(FlowBoard, FingerprintStableAcrossThreadsWithHundredThousandVcis) {
  // The chaos runner's end-to-end fingerprint, with the flow tables grown
  // to 10^5 mapped VCIs, must be bit-identical between two runs: growth,
  // incremental migration and iteration order are all deterministic.
  // (The name dates from the threaded engine, when the second run used
  // two worker threads.)
  chaos::Schedule s;  // no faults; the population is the stressor
  s.seed = 12;
  chaos::RunnerConfig cfg;
  cfg.horizon = sim::ms(6);
  cfg.arq_msgs = 20;
  cfg.dgram_msgs = 8;
  cfg.rpc_calls = 4;
  cfg.adc_msgs = 6;
  cfg.bulk_vcis = 100000;
  const chaos::Report first = chaos::run_schedule(s, cfg);
  EXPECT_TRUE(first.ok()) << (first.violations.empty()
                                  ? ""
                                  : first.violations[0]);
  const chaos::Report again = chaos::run_schedule(s, cfg);
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(first.fingerprint, again.fingerprint);
}

}  // namespace
}  // namespace osiris
