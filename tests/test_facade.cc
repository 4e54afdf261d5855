// Facade-level tests: path management (abundant VCIs), statistics
// snapshots, and the RPC protocol configured above the stack.
#include <gtest/gtest.h>

#include "osiris/paths.h"
#include "osiris/stats.h"
#include "proto/rpc.h"

namespace osiris {
namespace {

TEST(Paths, OpenBindsBothEnds) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  PathManager pm(tb);
  const atm::Vci vci = pm.open();
  EXPECT_TRUE(pm.is_open(vci));
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::uint64_t got = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++got; });
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(100, 1));
  sa->send(0, vci, m);
  tb.run();
  EXPECT_EQ(got, 1u);
}

TEST(Paths, HundredsOfPathsAreCheap) {
  // "potentially hundreds of paths (connections) on a given host" (§3.1).
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  PathManager pm(tb);
  std::vector<atm::Vci> vcis;
  for (int i = 0; i < 400; ++i) vcis.push_back(pm.open());
  EXPECT_EQ(pm.open_count(), 400u);
  // All distinct.
  std::sort(vcis.begin(), vcis.end());
  EXPECT_EQ(std::adjacent_find(vcis.begin(), vcis.end()), vcis.end());
  // Traffic flows on an arbitrary one.
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::uint64_t got = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++got; });
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(64, 2));
  sa->send(0, vcis[250], m);
  tb.run();
  EXPECT_EQ(got, 1u);
}

TEST(Paths, CloseUnbindsAndTrafficIsDropped) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  PathManager pm(tb);
  const atm::Vci vci = pm.open();
  pm.close(vci);
  EXPECT_FALSE(pm.is_open(vci));
  EXPECT_THROW(pm.close(vci), std::invalid_argument);

  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::uint64_t got = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++got; });
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(64, 3));
  sa->send(0, vci, m);
  tb.run();
  EXPECT_EQ(got, 0u) << "cells on a closed VCI are discarded at the board";
}

TEST(Paths, VciReuseAfterCloseWorks) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  PathManager pm(tb, 2000);
  const std::uint16_t v1 = pm.open();
  pm.close(v1);
  // The allocator moves forward, but an explicit re-open of the same
  // numeric VCI via map_kernel_vci also works.
  tb.a.map_kernel_vci(v1);
  tb.b.map_kernel_vci(v1);
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  std::uint64_t got = 0;
  sb->set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) { ++got; });
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(64, 4));
  sa->send(0, v1, m);
  tb.run();
  EXPECT_EQ(got, 1u);
}

TEST(Stats, SnapshotReflectsTraffic) {
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  sb->set_sink([](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {});
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(5000, 5));
  sim::Tick t = 0;
  for (int i = 0; i < 4; ++i) t = sa->send(t, vci, m);
  tb.run();

  const NodeStats a = snapshot(tb.a);
  const NodeStats b = snapshot(tb.b);
  EXPECT_EQ(a.pdus_sent, 4u);
  EXPECT_EQ(b.pdus_completed, 4u);
  EXPECT_EQ(b.driver_pdus_received, 4u);
  EXPECT_GT(a.cells_sent, 4 * 100u);
  EXPECT_EQ(a.cells_sent, b.cells_received);
  EXPECT_GT(b.interrupts, 0u);
  EXPECT_GT(a.dpram_host_accesses, 0u);
  EXPECT_GT(b.combine_fraction, 0.5);
  EXPECT_GT(a.bus_utilization, 0.0);
  // The formatter produces something human-shaped.
  const std::string text = format_stats(b);
  EXPECT_NE(text.find("PDUs reassembled"), std::string::npos);
  EXPECT_NE(text.find(b.machine), std::string::npos);
}

TEST(Stats, DpramAccessesPerPduAreSmall) {
  // §2.1 goal 1: "minimizing the number of load and store operations
  // required to communicate". A send is ~2 descriptor pushes + doorbell +
  // reaping; a receive is ~2 pops + recycles: tens of accesses, not
  // hundreds.
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  const atm::Vci vci = tb.open_kernel_path();
  auto sa = tb.a.make_stack(proto::StackConfig{});
  auto sb = tb.b.make_stack(proto::StackConfig{});
  sb->set_sink([](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {});
  proto::Message m = proto::Message::from_payload(
      tb.a.kernel_space, std::vector<std::uint8_t>(16000, 6));
  sim::Tick t = 0;
  for (int i = 0; i < 20; ++i) t = sa->send(t, vci, m);
  tb.run();
  const NodeStats b = snapshot(tb.b);
  EXPECT_GT(b.host_accesses_per_pdu(), 5.0);
  EXPECT_LT(b.host_accesses_per_pdu(), 60.0);
}

// ------------------------------------------------------------------- RPC

struct RpcNet {
  Testbed tb{make_3000_600_config(), make_3000_600_config()};
  atm::Vci vci;
  std::unique_ptr<proto::ProtoStack> sa, sb;
  std::unique_ptr<proto::RpcEndpoint> client, server;

  RpcNet() {
    vci = tb.open_kernel_path();
    proto::StackConfig sc;
    sc.udp_checksum = true;
    sa = tb.a.make_stack(sc);
    sb = tb.b.make_stack(sc);
    client = std::make_unique<proto::RpcEndpoint>(
        tb.a.eng, *sa, tb.a.kernel_space, tb.a.cpu, tb.a.cfg.machine);
    server = std::make_unique<proto::RpcEndpoint>(
        tb.b.eng, *sb, tb.b.kernel_space, tb.b.cpu, tb.b.cfg.machine);
  }
};

TEST(Rpc, EchoCall) {
  RpcNet net;
  net.server->serve([](std::vector<std::uint8_t> req) {
    std::reverse(req.begin(), req.end());
    return req;
  });
  std::optional<std::vector<std::uint8_t>> got;
  net.client->call(0, net.vci, {1, 2, 3, 4},
                   [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                     got = std::move(r);
                   });
  net.tb.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (std::vector<std::uint8_t>{4, 3, 2, 1}));
  EXPECT_EQ(net.client->responses(), 1u);
  EXPECT_EQ(net.server->served(), 1u);
  EXPECT_EQ(net.client->timeouts(), 0u);
}

TEST(Rpc, ManyOutstandingCallsMatchById) {
  RpcNet net;
  net.server->serve([](std::vector<std::uint8_t> req) {
    for (auto& b : req) b = static_cast<std::uint8_t>(b + 1);
    return req;
  });
  int completed = 0;
  sim::Tick t = 0;
  for (std::uint8_t i = 0; i < 50; ++i) {
    t = net.client->call(
        t, net.vci, std::vector<std::uint8_t>(10, i),
        [&completed, i](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
          ASSERT_TRUE(r.has_value());
          EXPECT_EQ((*r)[0], static_cast<std::uint8_t>(i + 1));
          ++completed;
        });
  }
  net.tb.run();
  EXPECT_EQ(completed, 50);
}

TEST(Rpc, TimeoutFiresWhenServerIsDeaf) {
  RpcNet net;
  // No serve(): requests are swallowed as stray.
  bool timed_out = false;
  net.client->call(0, net.vci, {9, 9},
                   [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                     timed_out = !r.has_value();
                   },
                   sim::ms(5));
  net.tb.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(net.client->timeouts(), 1u);
  EXPECT_EQ(net.server->stray(), 1u);
}

TEST(Rpc, LateResponseAfterTimeoutIsStray) {
  RpcNet net;
  net.server->serve([](std::vector<std::uint8_t> req) { return req; });
  bool timed_out = false;
  // Timeout far shorter than the ~150 us round trip.
  net.client->call(0, net.vci, std::vector<std::uint8_t>(2000, 7),
                   [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                     timed_out = !r.has_value();
                   },
                   sim::us(10));
  net.tb.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(net.client->stray(), 1u) << "the late response must not crash";
}

TEST(Rpc, LargePayloadsFragmentAndReturn) {
  RpcNet net;
  net.server->serve([](std::vector<std::uint8_t> req) {
    return std::vector<std::uint8_t>(req.size() * 2, req.empty() ? 0 : req[0]);
  });
  std::size_t got_len = 0;
  net.client->call(0, net.vci, std::vector<std::uint8_t>(40000, 3),
                   [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                     if (r) got_len = r->size();
                   });
  net.tb.run();
  EXPECT_EQ(got_len, 80000u);
}

TEST(Rpc, BackToBackCallsNeverRewriteInFlightFrames) {
  // 200 calls of 4000 B issued back to back keep more frames in flight
  // than the 63-descriptor transmit queue holds: the rest park on the full
  // queue, still referencing their frame slots. A slot reused before the
  // board has sent it puts torn bytes on the wire, which the server's
  // checksum rejects and the call times out.
  RpcNet net;
  net.server->serve([](std::vector<std::uint8_t> req) { return req; });
  int ok = 0;
  sim::Tick t = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> req(4000, static_cast<std::uint8_t>(i));
    t = net.client->call(
        t, net.vci, req,
        [&ok, req](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
          if (r && *r == req) ++ok;
        });
  }
  net.tb.run();
  EXPECT_EQ(net.server->served(), 200u);
  EXPECT_EQ(ok, 200);
  EXPECT_EQ(net.sb->checksum_failures(), 0u);
  EXPECT_EQ(net.sa->checksum_failures(), 0u);
}

}  // namespace
}  // namespace osiris
