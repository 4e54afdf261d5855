// Calibration tests: the simulated system must land near the paper's
// headline measurements (§2.5.1 bus bounds exactly; §4 results in shape).
// Tolerances here are intentionally loose — EXPERIMENTS.md records the
// precise paper-vs-measured numbers.
#include <gtest/gtest.h>

#include "osiris/harness.h"
#include "osiris/node.h"
#include "tc/turbochannel.h"

namespace osiris {
namespace {

TEST(Calibration, TurboChannelDmaBoundsMatchPaperExactly) {
  sim::Engine eng;
  tc::TurboChannel bus(eng, tc::BusConfig{});
  // §2.5.1: 44-byte transfers -> 367 (read) / 463 (write) Mbps;
  //         88-byte transfers -> 503 / 587 Mbps.
  const auto rate = [&](sim::Duration per, std::uint32_t bytes) {
    return static_cast<double>(bytes) * 8.0 / (sim::to_ns(per));  // Gbps
  };
  EXPECT_NEAR(rate(bus.dma_read_cost(44), 44) * 1000, 367, 1.0);
  EXPECT_NEAR(rate(bus.dma_write_cost(44), 44) * 1000, 463, 1.0);
  EXPECT_NEAR(rate(bus.dma_read_cost(88), 88) * 1000, 503, 1.0);
  EXPECT_NEAR(rate(bus.dma_write_cost(88), 88) * 1000, 587, 1.0);
}

TEST(Calibration, InterruptServiceCostsMatchPaper) {
  const auto m5 = host::decstation_5000_200();
  EXPECT_EQ(m5.interrupt_service, sim::us(75));  // §2.1.2
}

struct LatencyCase {
  bool alpha;       // 3000/600 vs 5000/200
  bool udp;         // UDP/IP vs raw ATM
  std::uint8_t pad[2];  // zeroed: gtest names each case from its raw bytes
  std::uint32_t bytes;
  double paper_rtt_us;
  double tolerance;  // fraction
};
static_assert(sizeof(LatencyCase) == 24);

class Table1Test : public ::testing::TestWithParam<LatencyCase> {};

TEST_P(Table1Test, RoundTripNearPaper) {
  const auto p = GetParam();
  NodeConfig c = p.alpha ? make_3000_600_config() : make_5000_200_config();
  Testbed tb(c, p.alpha ? make_3000_600_config() : make_5000_200_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.mode = p.udp ? proto::StackMode::kUdpIp : proto::StackMode::kRawAtm;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  const auto r = harness::ping_pong(tb, *sa, *sb, vci, p.bytes, 10);
  EXPECT_NEAR(r.rtt_us_mean, p.paper_rtt_us, p.paper_rtt_us * p.tolerance)
      << (p.alpha ? "3000/600" : "5000/200") << (p.udp ? " UDP" : " ATM")
      << " " << p.bytes << "B";
}

// Fixed (1-byte) latencies should match closely; the slope for larger
// messages is dominated by the per-cell pipeline bottleneck, which this
// model underestimates relative to the paper (see EXPERIMENTS.md), hence
// wider tolerances at 4 KB.
INSTANTIATE_TEST_SUITE_P(
    Table1, Table1Test,
    ::testing::Values(LatencyCase{false, false, {}, 1, 353, 0.15},
                      LatencyCase{false, true, {}, 1, 598, 0.15},
                      LatencyCase{true, false, {}, 1, 154, 0.15},
                      LatencyCase{true, true, {}, 1, 316, 0.15},
                      LatencyCase{false, false, {}, 4096, 778, 0.45},
                      LatencyCase{true, false, {}, 4096, 449, 0.45},
                      LatencyCase{false, true, {}, 4096, 1011, 0.45},
                      LatencyCase{true, true, {}, 4096, 619, 0.45}));

TEST(Calibration, Fig2ReceivePlateaus5000_200) {
  // Paper: single-cell DMA ~340 Mbps, double-cell ~379, eager
  // invalidation ~250 (16 KB messages and up).
  auto run = [](bool double_dma, bool eager) {
    NodeConfig c = make_5000_200_config();
    c.board.double_cell_dma_rx = double_dma;
    c.driver.eager_invalidate = eager;
    sim::Engine eng;
    Node n(eng, c);
    proto::StackConfig sc;
    auto stack = n.make_stack(sc);
    return harness::receive_throughput(n, *stack, 700, 64 * 1024, 40, sc).mbps;
  };
  EXPECT_NEAR(run(false, false), 340, 45);
  EXPECT_NEAR(run(true, false), 379, 45);
  EXPECT_NEAR(run(false, true), 250, 40);
}

TEST(Calibration, Fig3ReceivePlateaus3000_600) {
  // Paper: double-cell approaches the 516 Mbps link payload bandwidth;
  // with UDP checksumming it drops to ~438 Mbps.
  auto run = [](bool double_dma, bool cksum) {
    NodeConfig c = make_3000_600_config();
    c.board.double_cell_dma_rx = double_dma;
    sim::Engine eng;
    Node n(eng, c);
    proto::StackConfig sc;
    sc.udp_checksum = cksum;
    auto stack = n.make_stack(sc);
    return harness::receive_throughput(n, *stack, 701, 64 * 1024, 40, sc).mbps;
  };
  const double plain = run(true, false);
  const double cs = run(true, true);
  EXPECT_NEAR(plain, 505, 35);  // approaches 516
  EXPECT_NEAR(cs, 438, 50);
  EXPECT_LT(cs, plain);
}

TEST(Calibration, Fig4TransmitPlateau) {
  // Paper: ~325 Mbps, limited by single-cell DMA TURBOchannel overhead.
  auto run = [](NodeConfig sender_cfg) {
    Testbed tb(std::move(sender_cfg), make_3000_600_config());
    const atm::Vci vci = tb.open_kernel_path();
    auto sa = tb.a.make_stack(proto::StackConfig{});
    auto sb = tb.b.make_stack(proto::StackConfig{});
    return harness::transmit_throughput(tb, tb.a, *sa, *sb, vci, 64 * 1024, 40)
        .mbps;
  };
  const double alpha = run(make_3000_600_config());
  const double mips = run(make_5000_200_config());
  EXPECT_NEAR(alpha, 325, 45);
  EXPECT_LT(mips, alpha);
  EXPECT_GT(mips, 180);
}

TEST(Calibration, CpuTouchingDataCollapsesThroughputOn5000_200) {
  // §4: reading the data (UDP checksum) on the DECstation drops receive
  // throughput to ~80 Mbps due to limited memory bandwidth.
  NodeConfig c = make_5000_200_config();
  sim::Engine eng;
  Node n(eng, c);
  proto::StackConfig sc;
  sc.udp_checksum = true;
  auto stack = n.make_stack(sc);
  const double mbps =
      harness::receive_throughput(n, *stack, 702, 64 * 1024, 25, sc).mbps;
  EXPECT_NEAR(mbps, 80, 30);
}

}  // namespace
}  // namespace osiris
