// Protocol stack tests: messages, fragmentation, checksums, reassembly,
// MTU sweeps and header arenas.
#include <gtest/gtest.h>

#include "osiris/node.h"
#include "proto/message.h"
#include "proto/stack.h"

namespace osiris {
namespace {

using proto::Message;

struct Net {
  sim::Engine eng_holder;  // unused; Testbed owns its own engine
  Testbed tb;
  std::unique_ptr<proto::ProtoStack> sa, sb;
  Net(proto::StackConfig sc, NodeConfig ca = make_3000_600_config(),
      NodeConfig cb = make_3000_600_config())
      : tb(std::move(ca), std::move(cb)) {
    sa = tb.a.make_stack(sc);
    sb = tb.b.make_stack(sc);
  }
};

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t s = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 11 + s);
  return v;
}

TEST(Message, HeaderAndSliceAndGather) {
  mem::PhysicalMemory pm(1 << 22);
  mem::FrameAllocator fa(1 << 22, true, 3);
  mem::AddressSpace as(pm, fa, "t");
  const auto data = pattern(5000);
  Message m = Message::from_payload(as, data, 77);
  EXPECT_EQ(m.length(), 5000u);
  const std::vector<std::uint8_t> hdr{1, 2, 3, 4};
  m.push_header(hdr);
  EXPECT_EQ(m.length(), 5004u);
  auto all = m.gather();
  EXPECT_TRUE(std::equal(hdr.begin(), hdr.end(), all.begin()));
  EXPECT_TRUE(std::equal(data.begin(), data.end(), all.begin() + 4));

  Message s = m.slice(4, 100);
  EXPECT_EQ(s.gather(), std::vector<std::uint8_t>(data.begin(), data.begin() + 100));
  m.pop_bytes(4);
  EXPECT_EQ(m.gather(), data);
}

TEST(Message, ScatterCountsPhysicalBuffers) {
  // Figure 1: header + unaligned data over n pages -> n+2 physical buffers
  // (with an interleaved frame allocator).
  mem::PhysicalMemory pm(1 << 22);
  mem::FrameAllocator fa(1 << 22, true, 5);
  mem::AddressSpace as(pm, fa, "t");
  Message m = Message::from_payload(as, pattern(2 * mem::kPageSize), 100);
  m.push_header(pattern(20, 9));
  const auto sc = m.scatter();
  EXPECT_EQ(sc.size(), 4u);  // 1 header + 3 data pages
}

TEST(Stack, UdpRoundTripSmall) {
  Net net{proto::StackConfig{}};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::vector<std::uint8_t> got;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got = std::move(d);
  });
  const auto data = pattern(1);
  Message m = Message::from_payload(net.tb.a.kernel_space, data);
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(got, data);
}

TEST(Stack, UdpRoundTripFragmented) {
  proto::StackConfig sc;
  sc.ip_mtu = 4096 + proto::kIpHeader;  // force fragmentation
  Net net{sc};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::vector<std::uint8_t> got;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got = std::move(d);
  });
  const auto data = pattern(40000, 3);
  Message m = Message::from_payload(net.tb.a.kernel_space, data, 123);
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(got.size(), data.size());
  EXPECT_EQ(got, data);
  EXPECT_EQ(net.sb->delivered(), 1u);
}

TEST(Stack, ChecksumVerifiesCleanPath) {
  proto::StackConfig sc;
  sc.udp_checksum = true;
  Net net{sc};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::vector<std::uint8_t> got;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got = std::move(d);
  });
  const auto data = pattern(10000, 5);
  Message m = Message::from_payload(net.tb.a.kernel_space, data, 8);
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(got, data);
  EXPECT_EQ(net.sb->checksum_failures(), 0u);
}

TEST(Stack, ChecksumCatchesWireCorruption) {
  proto::StackConfig sc;
  sc.udp_checksum = true;
  NodeConfig ca = make_3000_600_config();
  ca.link.payload_err_p = 1.0;  // corrupt every cell a->b
  Net net{sc, std::move(ca)};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::uint64_t delivered = 0;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    ++delivered;
  });
  Message m = Message::from_payload(net.tb.a.kernel_space, pattern(5000, 6));
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.sb->checksum_failures(), 1u);
  EXPECT_EQ(net.sb->stale_recoveries(), 0u) << "wire damage is not stale cache";
}

TEST(Stack, RawAtmRoundTrip) {
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  Net net{sc};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::vector<std::uint8_t> got;
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
    got = std::move(d);
  });
  const auto data = pattern(4096, 7);
  Message m = Message::from_payload(net.tb.a.kernel_space, data);
  net.sa->send(0, vci, m);
  net.tb.run();
  EXPECT_EQ(got, data);
}

TEST(Stack, BidirectionalTraffic) {
  Net net{proto::StackConfig{}};
  const atm::Vci vci = net.tb.open_kernel_path();
  std::uint64_t at_a = 0, at_b = 0;
  net.sa->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++at_a; });
  net.sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++at_b; });
  Message ma = Message::from_payload(net.tb.a.kernel_space, pattern(2000, 1));
  Message mb = Message::from_payload(net.tb.b.kernel_space, pattern(3000, 2));
  sim::Tick ta = 0, tb2 = 0;
  for (int i = 0; i < 10; ++i) {
    ta = net.sa->send(ta, vci, ma);
    tb2 = net.sb->send(tb2, vci, mb);
  }
  net.tb.run();
  EXPECT_EQ(at_a, 10u);
  EXPECT_EQ(at_b, 10u);
}

TEST(Stack, MultipleVcisAreIndependent) {
  Net net{proto::StackConfig{}};
  const std::uint16_t v1 = net.tb.open_kernel_path();
  const std::uint16_t v2 = net.tb.open_kernel_path();
  std::map<std::uint16_t, std::uint64_t> count;
  net.sb->set_sink([&](sim::Tick, std::uint16_t v, std::vector<std::uint8_t>&&) {
    ++count[v];
  });
  Message m = Message::from_payload(net.tb.a.kernel_space, pattern(1500, 3));
  sim::Tick t = 0;
  for (int i = 0; i < 5; ++i) {
    t = net.sa->send(t, v1, m);
    t = net.sa->send(t, v2, m);
  }
  net.tb.run();
  EXPECT_EQ(count[v1], 5u);
  EXPECT_EQ(count[v2], 5u);
}

// The stack under stress: MTU sweeps, header arenas, reassembly
// bookkeeping, and checksum interaction with fragmentation.

std::vector<std::uint8_t> pattern31(std::size_t n, std::uint8_t s) {
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
  const auto want = pattern31(msg, static_cast<std::uint8_t>(mtu));
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
      proto::Message::from_payload(tb.a.kernel_space, pattern31(2000, 8));
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
        proto::Message::from_payload(tb.a.kernel_space, pattern31(30000, 9), 500);
    sa->send(0, vci, m);
    tb.run();
    return got;
  };
  const auto plain = run(false);
  const auto arena = run(true);
  EXPECT_EQ(plain, arena);
  EXPECT_EQ(plain, pattern31(30000, 9));
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
  sa->use_header_arena(tb.a.kernel_space);
  std::uint64_t ok = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++ok; });
  proto::Message m =
      proto::Message::from_payload(tb.a.kernel_space, pattern31(40000, 4));
  for (int i = 0; i < 12; ++i) {  // ~492 headers through 256 slots
    sa->send(tb.now(), vci, m);
    tb.run();  // each message drains before the next is queued
  }
  EXPECT_EQ(ok, 12u);
  EXPECT_EQ(sb->checksum_failures(), 0u);
}

TEST(Stack2, HeaderArenaGrowsInsteadOfOverrunningInFlightHeaders) {
  // Seven back-to-back 40 KB messages at a 1 KB MTU put 287 headers in
  // flight, more than the arena's 256 slots. The arena must grow rather
  // than rewrite a header the board has not sent yet, so the receiver
  // sees exactly what it sees without an arena: the same deliveries and
  // the same losses to its receive pool, none to corrupt reassembly.
  struct Outcome {
    std::uint64_t ok, nobuf, reasm_drops, overflows;
  };
  auto run = [](bool arena) {
    Testbed tb(make_3000_600_config(), make_3000_600_config());
    const atm::Vci vci = tb.open_kernel_path();
    proto::StackConfig sc;
    sc.ip_mtu = 1024 + proto::kIpHeader;  // 40 fragments per message
    sc.udp_checksum = true;
    auto sa = tb.a.make_stack(sc);
    auto sb = tb.b.make_stack(sc);
    if (arena) sa->use_header_arena(tb.a.kernel_space);
    std::uint64_t ok = 0;
    sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&& d) {
      EXPECT_EQ(d, pattern31(40000, 4)) << "nothing corrupt may be delivered";
      ++ok;
    });
    proto::Message m =
        proto::Message::from_payload(tb.a.kernel_space, pattern31(40000, 4));
    sim::Tick t = 0;
    for (int i = 0; i < 7; ++i) t = sa->send(t, vci, m);
    tb.run();
    return Outcome{ok, tb.b.rxp.pdus_dropped_nobuf(), sb->reassembly_drops(),
                   sa->header_overflows()};
  };
  const Outcome plain = run(false);
  const Outcome arena = run(true);
  EXPECT_EQ(arena.ok, plain.ok);
  EXPECT_EQ(arena.nobuf, plain.nobuf);
  EXPECT_EQ(arena.reasm_drops, plain.reasm_drops);
  EXPECT_GT(arena.overflows, 0u);
}

TEST(Stack2, BuffersPerPduStatisticTracksScatter) {
  Testbed tb(make_5000_200_config(), make_5000_200_config());
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  sb->set_sink([](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {});
  proto::Message m =
      proto::Message::from_payload(tb.a.kernel_space, pattern31(10000, 2), 77);
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
  const auto m1 = pattern31(9000, 1);
  const auto m2 = pattern31(7000, 2);
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
