// Second protocol-stack suite: MTU sweeps, header arenas, reassembly
// bookkeeping, and checksum interaction with fragmentation.
#include <gtest/gtest.h>

#include "osiris/node.h"
#include "proto/message.h"
#include "proto/stack.h"

namespace osiris {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t s) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 31 + s);
  return v;
}

// gtest names each case after the raw bytes of its parameter, padding
// included, so the padding is spelled out and zeroed to keep the names the
// same from build to build.
struct MtuCase {
  std::uint32_t mtu;
  std::uint32_t msg;
  bool cksum;
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(MtuCase) == 12);

class MtuSweep : public ::testing::TestWithParam<MtuCase> {};

TEST_P(MtuSweep, IntegrityAcrossFragmentationRegimes) {
  const MtuCase& c = GetParam();
  const std::uint32_t mtu = c.mtu;
  const std::uint32_t msg = c.msg;
  const bool cksum = c.cksum;
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.ip_mtu = mtu;
  sc.udp_checksum = cksum;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  const auto want = pattern(msg, static_cast<std::uint8_t>(mtu));
  std::uint64_t ok = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(d, want);
    ++ok;
  });
  proto::Message m = proto::Message::from_payload(tb.a.kernel_space, want, 33);
  sim::Tick t = 0;
  for (int i = 0; i < 2; ++i) t = sa->send(t, vci, m);
  tb.run();
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(sb->checksum_failures(), 0u);
  EXPECT_EQ(sb->reassembly_drops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Mtus, MtuSweep,
    ::testing::Values(MtuCase{proto::kIpHeader + 1, 30, false},  // 1-byte frags!
                      MtuCase{proto::kIpHeader + 1, 30, true},
                      MtuCase{64, 2000, false},
                      MtuCase{512, 5000, true},
                      MtuCase{4096, 16 * 1024, false},
                      MtuCase{4096 + 28, 16 * 1024, true},
                      MtuCase{16 * 1024 + 28, 64 * 1024, true},
                      MtuCase{64 * 1024, 200000, false}));

TEST(Stack2, ExtremeFragmentationOverloadShedsAtTheBoard) {
  // A large message at a 1-byte MTU floods the receiver with hundreds of
  // tiny PDUs faster than it can recycle buffers: the board sheds load
  // (§3.1) and the message never completes — by design, not by accident.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.ip_mtu = proto::kIpHeader + 1;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  std::uint64_t ok = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++ok; });
  proto::Message m =
      proto::Message::from_payload(tb.a.kernel_space, pattern(2000, 8));
  sa->send(0, vci, m);
  tb.run();
  EXPECT_EQ(ok, 0u);
  EXPECT_GT(tb.b.rxp.pdus_dropped_nobuf() + tb.b.rxp.pdus_dropped_recvfull(),
            0u);
}

TEST(Stack2, TooSmallMtuRejectedAtConstruction) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.ip_mtu = proto::kIpHeader;  // no room for any data
  EXPECT_THROW(tb.a.make_stack(sc), std::invalid_argument);
}

TEST(Stack2, HeaderArenaProducesIdenticalBytes) {
  // The same message sent with and without the registered header arena
  // must deliver identical payloads (the arena changes where headers live,
  // not what they say).
  auto run = [](bool arena) {
    Testbed tb(make_3000_600_config(), make_3000_600_config());
    const atm::Vci vci = tb.open_kernel_path();
    proto::StackConfig sc;
    sc.udp_checksum = true;
    auto sa = tb.a.make_stack(sc);
    auto sb = tb.b.make_stack(sc);
    if (arena) sa->use_header_arena(tb.a.kernel_space);
    std::vector<std::uint8_t> got;
    sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
      got = std::move(d);
    });
    proto::Message m =
        proto::Message::from_payload(tb.a.kernel_space, pattern(30000, 9), 500);
    sa->send(0, vci, m);
    tb.run();
    return got;
  };
  const auto plain = run(false);
  const auto arena = run(true);
  EXPECT_EQ(plain, arena);
  EXPECT_EQ(plain, pattern(30000, 9));
}

TEST(Stack2, HeaderArenaSlotsReusedSafelyAcrossDrainedSends) {
  // The ring cycles across many sends, as long as reuse respects the
  // registered-memory discipline (a slot is free once its PDU has left).
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.ip_mtu = 1024 + proto::kIpHeader;  // 40 fragments per message
  sc.udp_checksum = true;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  sa->use_header_arena(tb.a.kernel_space, 256);
  std::uint64_t ok = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++ok; });
  proto::Message m =
      proto::Message::from_payload(tb.a.kernel_space, pattern(40000, 4));
  for (int i = 0; i < 12; ++i) {  // ~492 headers through 256 slots
    sa->send(tb.now(), vci, m);
    tb.run();  // each message drains before the next is queued
  }
  EXPECT_EQ(ok, 12u);
  EXPECT_EQ(sb->checksum_failures(), 0u);
}

TEST(Stack2, HeaderArenaOverrunCorruptsInFlightHeaders) {
  // The negative control: blasting more outstanding fragments than the
  // arena has slots overwrites headers the board has not yet transmitted.
  // The end-to-end checksum catches the damage; nothing corrupt is
  // delivered — but messages are lost. Registered memory demands the
  // discipline, exactly as on RDMA hardware.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.ip_mtu = 1024 + proto::kIpHeader;
  sc.udp_checksum = true;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  sa->use_header_arena(tb.a.kernel_space, 32);  // far too few slots
  std::uint64_t ok = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    EXPECT_EQ(d, pattern(40000, 4)) << "nothing corrupt may be delivered";
    ++ok;
  });
  proto::Message m =
      proto::Message::from_payload(tb.a.kernel_space, pattern(40000, 4));
  sim::Tick t = 0;
  for (int i = 0; i < 6; ++i) t = sa->send(t, vci, m);
  tb.run();
  EXPECT_LT(ok, 6u);
}

TEST(Stack2, BuffersPerPduStatisticTracksScatter) {
  Testbed tb(make_5000_200_config(), make_5000_200_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  sb->set_sink([](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {});
  proto::Message m =
      proto::Message::from_payload(tb.a.kernel_space, pattern(10000, 2), 77);
  sa->send(0, vci, m);
  tb.run();
  // hdr + udp hdr + 3-4 data pages (unaligned 10 KB).
  EXPECT_GE(sa->buffers_per_pdu().mean(), 4.0);
  EXPECT_LE(sa->buffers_per_pdu().mean(), 7.0);
}

TEST(Stack2, InterleavedMessagesOnOneVciReassembleById) {
  // Two multi-fragment messages sent back to back share the VCI; distinct
  // IP ids keep their fragments separate.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.ip_mtu = 2048 + proto::kIpHeader;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  std::vector<std::vector<std::uint8_t>> got;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got.push_back(std::move(d));
  });
  const auto m1 = pattern(9000, 1);
  const auto m2 = pattern(7000, 2);
  proto::Message a = proto::Message::from_payload(tb.a.kernel_space, m1);
  proto::Message b = proto::Message::from_payload(tb.a.kernel_space, m2);
  const sim::Tick t = sa->send(0, vci, a);
  sa->send(t, vci, b);
  tb.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], m1);
  EXPECT_EQ(got[1], m2);
}

}  // namespace
}  // namespace osiris
