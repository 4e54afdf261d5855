// Harness self-tests: the synthetic fragment builder must be
// byte-compatible with what the real protocol stack emits, and the
// measurement helpers must behave.
#include <gtest/gtest.h>

#include "atm/sar.h"
#include "osiris/harness.h"
#include "osiris/node.h"
#include "proto/message.h"

namespace osiris {
namespace {

TEST(Harness, SyntheticFragmentsParseThroughTheRealStack) {
  // Drive the generator with make_udp_fragments and verify the full stack
  // delivers the exact payload, for sizes spanning one to many fragments.
  for (const std::uint32_t msg : {1u, 1024u, 16 * 1024u, 40000u, 200000u}) {
    sim::Engine eng;
    Node n(eng, make_3000_600_config());
    proto::StackConfig sc;
    sc.udp_checksum = true;  // exercises the checksum in the synthetic path
    auto stack = n.make_stack(sc);
    n.map_kernel_vci(800);

    std::vector<std::uint8_t> got;
    stack->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
      got = std::move(d);
    });
    const auto frags = harness::make_udp_fragments(msg, sc.ip_mtu, true);
    n.rxp.start_generator_multi(800, frags, 1, 0);
    eng.run();

    ASSERT_EQ(got.size(), msg) << "msg size " << msg;
    for (std::uint32_t i = 0; i < msg; ++i) {
      ASSERT_EQ(got[i], static_cast<std::uint8_t>(i * 131 + 3)) << "at " << i;
    }
    EXPECT_EQ(stack->checksum_failures(), 0u);
  }
}

TEST(Harness, FragmentCountMatchesMtuArithmetic) {
  const std::uint32_t mtu = 4096 + proto::kIpHeader;
  const auto frags = harness::make_udp_fragments(10000, mtu, false);
  // UDP packet = 10008 bytes; 3 fragments of <= 4096 data.
  EXPECT_EQ(frags.size(), 3u);
  EXPECT_EQ(frags[0].size(), 4096u + proto::kIpHeader);
  EXPECT_EQ(frags[2].size(), 10008u - 2 * 4096u + proto::kIpHeader);
}

TEST(Harness, PingPongIterationsAndStability) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  const auto r = harness::ping_pong(tb, *sa, *sb, vci, 512, 30);
  EXPECT_EQ(r.iterations, 30u);
  EXPECT_GT(r.rtt_us_min, 0.0);
  EXPECT_GE(r.rtt_us_max, r.rtt_us_mean);
  EXPECT_GE(r.rtt_us_mean, r.rtt_us_min);
}

TEST(Harness, LongPingPongRecyclesHeaderBuffers) {
  // UDP/IP headers go in buffers reclaimed at transmit completion
  // (§2.1.2), so the frames a run holds track what is in flight, not what
  // was ever sent. Two fresh frames per send used to exhaust a 64 MB
  // node after ~8,000 round trips.
  Testbed tb(make_5000_200_config(), make_5000_200_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack({});
  auto sb = tb.b.make_stack({});
  const std::size_t before = tb.a.frames.free_frames();
  const auto r = harness::ping_pong(tb, *sa, *sb, vci, 1, 10000);
  EXPECT_EQ(r.iterations, 10000u);
  // The payload's frame plus a handful of header buffers.
  EXPECT_LE(before - tb.a.frames.free_frames(), 16u);
}

TEST(Harness, LatencyMonotonicInMessageSize) {
  auto rtt = [](std::uint32_t bytes) {
    Testbed tb(make_3000_600_config(), make_3000_600_config());
    const atm::Vci vci = tb.open_kernel_path();
    proto::StackConfig sc;
    sc.mode = proto::StackMode::kRawAtm;
    auto sa = tb.a.make_stack(sc);
    auto sb = tb.b.make_stack(sc);
    return harness::ping_pong(tb, *sa, *sb, vci, bytes, 6).rtt_us_mean;
  };
  const double r1 = rtt(64);
  const double r2 = rtt(2048);
  const double r3 = rtt(16384);
  EXPECT_LT(r1, r2);
  EXPECT_LT(r2, r3);
}

TEST(Harness, ThroughputScalesWithMessageSizeThenPlateaus) {
  auto tp = [](std::uint32_t bytes) {
    sim::Engine eng;
    Node n(eng, make_3000_600_config());
    proto::StackConfig sc;
    auto stack = n.make_stack(sc);
    return harness::receive_throughput(n, *stack, 801, bytes, 30, sc).mbps;
  };
  const double small = tp(2048);
  const double mid = tp(16 * 1024);
  const double big = tp(128 * 1024);
  EXPECT_LT(small, mid);
  EXPECT_NEAR(mid, big, big * 0.1) << "plateau reached by 16 KB";
}

TEST(Harness, TransmitThroughputConservesMessages) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  const auto r =
      harness::transmit_throughput(tb, tb.a, *sa, *sb, vci, 8 * 1024, 100);
  EXPECT_EQ(r.messages, 100u);
  EXPECT_GT(r.mbps, 0.0);
}

}  // namespace
}  // namespace osiris
