// Fault injection, watchdog/reset recovery, and the ARQ retry layer.
//
// The adaptor and driver must degrade gracefully — not hang, not corrupt,
// not deliver duplicates — under board firmware stalls, DMA failures,
// descriptor corruption, lost interrupts and wire-level cell loss, and an
// ARQ protocol configured on top must turn that lossy service into
// exactly-once in-order delivery (the paper's layering argument, §1).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "atm/reassembly.h"
#include "atm/sar.h"
#include "fault/fault.h"
#include "osiris/audit.h"
#include "osiris/node.h"
#include "osiris/stats.h"
#include "proto/arq.h"
#include "proto/rpc.h"
#include "sim/trace.h"

namespace osiris {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint32_t tag) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 29 + tag * 101 + 13);
  }
  return v;
}

/// Message with a recoverable index: 4-byte big-endian tag then pattern.
std::vector<std::uint8_t> tagged(std::size_t n, std::uint32_t tag) {
  std::vector<std::uint8_t> v = pattern(n, tag);
  v[0] = static_cast<std::uint8_t>(tag >> 24);
  v[1] = static_cast<std::uint8_t>(tag >> 16);
  v[2] = static_cast<std::uint8_t>(tag >> 8);
  v[3] = static_cast<std::uint8_t>(tag);
  return v;
}

std::uint32_t tag_of(const std::vector<std::uint8_t>& v) {
  return (static_cast<std::uint32_t>(v[0]) << 24) |
         (static_cast<std::uint32_t>(v[1]) << 16) |
         (static_cast<std::uint32_t>(v[2]) << 8) | v[3];
}

// ------------------------------------------------------------- FaultPlane

TEST(FaultPlane, DeterministicAfterFiresOnceWithinBudget) {
  fault::FaultPlane fp;
  fp.arm(fault::Point::kDmaError, {.probability = 0.0, .after = 3, .budget = 1});
  EXPECT_FALSE(fp.fires(fault::Point::kDmaError));
  EXPECT_FALSE(fp.fires(fault::Point::kDmaError));
  EXPECT_TRUE(fp.fires(fault::Point::kDmaError));  // 3rd consultation
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fp.fires(fault::Point::kDmaError));
  EXPECT_EQ(fp.consulted(fault::Point::kDmaError), 13u);
  EXPECT_EQ(fp.fired(fault::Point::kDmaError), 1u);
  EXPECT_EQ(fp.total_fired(), 1u);
}

TEST(FaultPlane, ProbabilityIsRoughlyHonored) {
  fault::FaultPlane fp(123);
  fp.arm(fault::Point::kIrqLost, {.probability = 0.5});
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    if (fp.fires(fault::Point::kIrqLost)) ++fired;
  }
  EXPECT_GT(fired, 400);
  EXPECT_LT(fired, 600);
}

TEST(FaultPlane, BudgetBoundsProbabilisticFiring) {
  fault::FaultPlane fp(9);
  fp.arm(fault::Point::kBoardRxCellDrop, {.probability = 1.0, .budget = 4});
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    if (fp.fires(fault::Point::kBoardRxCellDrop)) ++fired;
  }
  EXPECT_EQ(fired, 4);
}

TEST(FaultPlane, ZeroBudgetNeverFires) {
  // budget == 0 means "armed but inert": useful for keeping a schedule's
  // shape while disabling a point. It must never fire — not via
  // probability, not via the deterministic `after` trigger.
  fault::FaultPlane fp(4);
  fp.arm(fault::Point::kIrqLost, {.probability = 1.0, .after = 1, .budget = 0});
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(fp.fires(fault::Point::kIrqLost));
  EXPECT_EQ(fp.consulted(fault::Point::kIrqLost), 50u);
  EXPECT_EQ(fp.fired(fault::Point::kIrqLost), 0u);
}

TEST(FaultPlane, EveryPointHasAName) {
  // point_name() is also checked at compile time (static_assert in
  // fault.h); this keeps the property visible in the test report and
  // guards the names' uniqueness too.
  std::set<std::string> seen;
  for (int i = 0; i < static_cast<int>(fault::Point::kCount); ++i) {
    const char* n = fault::point_name(static_cast<fault::Point>(i));
    ASSERT_NE(n, nullptr);
    EXPECT_STRNE(n, "?") << "Point " << i << " missing a point_name case";
    EXPECT_TRUE(seen.insert(n).second) << "duplicate point name " << n;
  }
}

TEST(FaultPlane, DisarmAndNullPlaneAreSafe) {
  fault::FaultPlane fp;
  fp.arm(fault::Point::kDescCorrupt, {.probability = 1.0});
  EXPECT_TRUE(fp.fires(fault::Point::kDescCorrupt));
  fp.disarm(fault::Point::kDescCorrupt);
  EXPECT_FALSE(fp.armed(fault::Point::kDescCorrupt));
  EXPECT_FALSE(fp.fires(fault::Point::kDescCorrupt));
  // The null-safe hook every layer uses when no plane is attached.
  EXPECT_FALSE(fault::fires(nullptr, fault::Point::kDmaError));
  EXPECT_FALSE(fp.summary().empty());
}

TEST(FaultPlane, DisarmPreservesLedgerResetStatsClearsIt) {
  fault::FaultPlane fp;
  fp.arm(fault::Point::kDmaError, {.probability = 1.0, .budget = 2});
  EXPECT_TRUE(fp.fires(fault::Point::kDmaError));
  EXPECT_TRUE(fp.fires(fault::Point::kDmaError));
  ASSERT_EQ(fp.ledger().size(), 2u);
  EXPECT_EQ(fp.ledger()[0].point, fault::Point::kDmaError);
  EXPECT_EQ(fp.ledger()[0].consultation, 1u);
  EXPECT_EQ(fp.ledger()[1].consultation, 2u);

  // Disarming mid-scenario must not destroy the accounting of what the
  // point already did: the ledger and lifetime counters survive.
  fp.disarm(fault::Point::kDmaError);
  EXPECT_FALSE(fp.armed(fault::Point::kDmaError));
  EXPECT_EQ(fp.ledger().size(), 2u);
  EXPECT_EQ(fp.lifetime_fired(fault::Point::kDmaError), 2u);
  EXPECT_EQ(fp.lifetime_consulted(fault::Point::kDmaError), 2u);

  // Re-arming restarts per-spec counters (so `after` is relative to the
  // new arm) but keeps appending to the same lifetime ledger.
  fp.arm(fault::Point::kDmaError, {.probability = 0.0, .after = 1, .budget = 1});
  EXPECT_TRUE(fp.fires(fault::Point::kDmaError));
  EXPECT_EQ(fp.ledger().size(), 3u);
  EXPECT_EQ(fp.ledger()[2].consultation, 1u);  // counted since the re-arm
  EXPECT_EQ(fp.lifetime_fired(fault::Point::kDmaError), 3u);

  // reset_stats() is the between-phases clean slate: every statistic goes,
  // armed specs stay armed.
  fp.arm(fault::Point::kIrqLost, {.probability = 0.0, .after = 2, .budget = 1});
  fp.reset_stats();
  EXPECT_TRUE(fp.armed(fault::Point::kDmaError));
  EXPECT_TRUE(fp.armed(fault::Point::kIrqLost));
  EXPECT_TRUE(fp.ledger().empty());
  EXPECT_EQ(fp.lifetime_fired(fault::Point::kDmaError), 0u);
  EXPECT_EQ(fp.lifetime_consulted(fault::Point::kDmaError), 0u);
  EXPECT_EQ(fp.consulted(fault::Point::kDmaError), 0u);
  EXPECT_EQ(fp.fired(fault::Point::kDmaError), 0u);
}

TEST(FaultPlane, ConsultationWindowGatesFiring) {
  fault::FaultPlane fp;
  // Eligible only on consultations 3..5 (1-based, since arm).
  fp.arm(fault::Point::kIrqLost, {.probability = 1.0,
                                  .window_from = 3,
                                  .window_until = 5});
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (fp.fires(fault::Point::kIrqLost)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  ASSERT_EQ(fp.ledger().size(), 3u);
  EXPECT_EQ(fp.ledger()[0].consultation, 3u);
  EXPECT_EQ(fp.ledger()[2].consultation, 5u);
}

TEST(FaultPlane, CorruptWordFlipsExactlyOneBit) {
  fault::FaultPlane fp(77);
  for (int i = 0; i < 50; ++i) {
    const std::uint32_t v = 0xDEADBEEF + static_cast<std::uint32_t>(i);
    const std::uint32_t c = fp.corrupt_word(v);
    EXPECT_EQ(std::popcount(v ^ c), 1);
  }
}

// ------------------------------------------------------- Trace (postmortem)

TEST(Trace, DroppedEventsAndStreamDump) {
  sim::Trace t(4);
  EXPECT_EQ(t.dropped_events(), 0u);
  for (std::uint64_t i = 0; i < 10; ++i) t.record(sim::us(1) * i, "c", "e", i);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped_events(), 6u);  // ring of 4 kept only the tail
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().a, 6u);
  EXPECT_EQ(evs.back().a, 9u);

  std::ostringstream os;
  t.dump(os, 2);
  const std::string s = os.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
  EXPECT_NE(s.find("c.e(9"), std::string::npos);
  EXPECT_EQ(t.dump(100), t.dump(4));  // only 4 survive
}

// ------------------------------------------- Reassembly GC (lost EOM cells)

TEST(ReassemblyGc, SeqRouterPurgeReclaimsLostEom) {
  atm::SeqRouter r;
  const auto p1 = pattern(150, 1);
  auto cells = atm::segment(p1, /*vci=*/7, /*pdu_id=*/1);
  ASSERT_GT(cells.size(), 2u);
  std::vector<atm::Placement> place;
  std::vector<atm::Completion> done;
  // Feed everything except the last cell — the EOM was lost on the wire.
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
    r.on_cell(static_cast<int>(cells[i].seq % atm::kLanes), cells[i], place, done);
  }
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(r.inflight(), 1u);

  EXPECT_EQ(r.purge(), 1u);
  EXPECT_EQ(r.inflight(), 0u);
  EXPECT_EQ(r.dropped(), cells.size() - 1);  // the fed cells are accounted

  // The router keeps working: a fresh PDU completes normally.
  const auto p2 = pattern(100, 2);
  const auto cells2 = atm::segment(p2, 7, /*pdu_id=*/2);
  place.clear();
  done.clear();
  std::uint64_t key1 = 0;
  for (const atm::Cell& c : cells2) {
    r.on_cell(static_cast<int>(c.seq % atm::kLanes), c, place, done);
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].wire_bytes, atm::wire_len(100));
  // PDU keys stay monotonic across the purge (no aliasing with stale state).
  key1 = done[0].pdu;
  EXPECT_GE(key1, 1u);
}

TEST(ReassemblyGc, SeqRouterReplacementBomReclaimsStaleId) {
  atm::SeqRouter r;
  const auto p1 = pattern(200, 3);
  auto cells = atm::segment(p1, 7, /*pdu_id=*/5);
  std::vector<atm::Placement> place;
  std::vector<atm::Completion> done;
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
    r.on_cell(0, cells[i], place, done);
  }
  const std::uint64_t fed = cells.size() - 1;
  EXPECT_EQ(r.inflight(), 1u);

  // The 16-bit id space wrapped and a new PDU reuses id 5. Its BOM must
  // evict the stale reassembly instead of being treated as a duplicate.
  const auto p2 = pattern(200, 4);
  const auto cells2 = atm::segment(p2, 7, /*pdu_id=*/5);
  place.clear();
  done.clear();
  for (const atm::Cell& c : cells2) r.on_cell(0, c, place, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].wire_bytes, atm::wire_len(200));
  EXPECT_EQ(r.dropped(), fed);
  EXPECT_EQ(r.inflight(), 0u);
}

TEST(ReassemblyGc, QuadRouterPurgeReclaimsLostEom) {
  atm::QuadRouter r;
  const auto p1 = pattern(240, 5);  // 6 cells: every lane carries one
  auto cells = atm::segment(p1, 7, 0);
  ASSERT_EQ(cells.size(), 6u);
  std::vector<atm::Placement> place;
  std::vector<atm::Completion> done;
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
    r.on_cell(static_cast<int>(cells[i].seq % atm::kLanes), cells[i], place, done);
  }
  EXPECT_TRUE(done.empty());
  EXPECT_GE(r.inflight() + r.queued(), 1u);

  EXPECT_GE(r.purge(), 1u);
  EXPECT_EQ(r.inflight(), 0u);
  EXPECT_EQ(r.queued(), 0u);
  EXPECT_GT(r.dropped(), 0u);

  // A complete PDU after the purge reassembles byte-exactly.
  const auto p2 = pattern(100, 6);
  const auto cells2 = atm::segment(p2, 7, 1);
  place.clear();
  done.clear();
  for (const atm::Cell& c : cells2) {
    r.on_cell(static_cast<int>(c.seq % atm::kLanes), c, place, done);
  }
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].wire_bytes, atm::wire_len(100));
  std::vector<std::uint8_t> wire(done[0].wire_bytes);
  for (const atm::Placement& pl : place) {
    if (pl.pdu != done[0].pdu) continue;
    std::copy_n(pl.cell.payload.begin(), pl.cell.len, wire.begin() + pl.offset);
  }
  EXPECT_TRUE(std::equal(p2.begin(), p2.end(), wire.begin()));
}

// ------------------------------------------------------------- End to end

/// Two-node testbed with stacks, a sink collecting node B's deliveries,
/// and (optionally) a fault plane on node B.
struct FaultNet {
  sim::Trace trace{2048};
  fault::FaultPlane fp{0xFA177};
  Testbed tb;
  atm::Vci vci;
  std::unique_ptr<proto::ProtoStack> sa, sb;
  std::vector<std::vector<std::uint8_t>> received;

  static NodeConfig node_a(double cell_loss) {
    NodeConfig c = make_3000_600_config();
    // Per-cell identity (strategy A) tolerates lost cells cleanly; the
    // quad strategy desynchronizes under loss (see test_errors.cc).
    c.board.reassembly = "seq";
    c.link.cell_loss_p = cell_loss;
    c.link.seed = 7;
    return c;
  }

  NodeConfig node_b(bool with_faults) {
    NodeConfig c = make_3000_600_config();
    c.board.reassembly = "seq";
    c.trace = &trace;
    if (with_faults) c.faults = &fp;
    return c;
  }

  explicit FaultNet(bool faults_on_b = true, double a_cell_loss = 0.0,
                    bool faults_on_a = false, std::size_t trace_cap = 2048)
      : trace(trace_cap),
        tb(faults_on_a ? with_fault_plane(node_a(a_cell_loss), &fp)
                       : node_a(a_cell_loss),
           node_b(faults_on_b)) {
    vci = tb.open_kernel_path();
    proto::StackConfig sc;
    sc.udp_checksum = true;
    sa = tb.a.make_stack(sc);
    sb = tb.b.make_stack(sc);
    sb->set_sink([this](sim::Tick, std::uint16_t,
                        std::vector<std::uint8_t>&& data) {
      received.push_back(std::move(data));
    });
  }

  static NodeConfig with_fault_plane(NodeConfig c, fault::FaultPlane* f) {
    c.faults = f;
    return c;
  }

  sim::Tick send_tagged(sim::Tick t, std::uint32_t tag, std::size_t bytes) {
    const proto::Message m =
        proto::Message::from_payload(tb.a.kernel_space, tagged(bytes, tag));
    return sa->send(t, vci, m);
  }
};

TEST(FaultE2E, DmaErrorIsCaughtByChecksum) {
  // The second transmit DMA read on node A fails: the board sends the cell
  // with zero-filled bytes (consistent AAL CRC), so only the end-to-end UDP
  // checksum can catch it — the paper's argument for end-to-end checks.
  FaultNet net(/*faults_on_b=*/false, 0.0, /*faults_on_a=*/true);
  net.fp.arm(fault::Point::kDmaError, {.after = 2, .budget = 1});
  sim::Tick t = 0;
  for (std::uint32_t i = 0; i < 5; ++i) t = net.send_tagged(t, i, 1024);
  net.tb.run();

  EXPECT_EQ(net.received.size(), 4u);  // exactly the corrupted one is dropped
  for (const auto& msg : net.received) {
    const std::uint32_t tag = tag_of(msg);
    EXPECT_EQ(msg, tagged(1024, tag));
  }
  EXPECT_EQ(net.fp.fired(fault::Point::kDmaError), 1u);
  EXPECT_GE(snapshot(net.tb.a).dma_errors, 1u);
  EXPECT_GE(net.sb->checksum_failures(), 1u);
}

TEST(FaultE2E, LostInterruptRecoveredByWatchdogPoll) {
  FaultNet net;
  net.fp.arm(fault::Point::kIrqLost, {.after = 1, .budget = 1});
  net.tb.b.start_watchdog(sim::ms(1), sim::ms(5), /*until=*/sim::ms(20));
  net.send_tagged(0, 1, 2000);
  net.tb.run();

  ASSERT_EQ(net.received.size(), 1u);
  EXPECT_EQ(net.received[0], tagged(2000, 1));
  const NodeStats b = snapshot(net.tb.b);
  EXPECT_EQ(b.irqs_lost, 1u);
  EXPECT_GE(b.watchdog_polls, 1u);  // the poll recovered the lost burst
  EXPECT_EQ(b.watchdog_resets, 0u);
}

TEST(FaultE2E, ForceResetRepostsBuffersAndTrafficResumes) {
  FaultNet net(/*faults_on_b=*/false);
  std::ostringstream pm;
  net.tb.b.driver.set_postmortem_stream(&pm);
  sim::Tick t = 0;
  for (std::uint32_t i = 0; i < 3; ++i) t = net.send_tagged(t, i, 4000);
  net.tb.b.eng.schedule_at(sim::ms(5), [&] {
    net.tb.b.driver.force_reset(net.tb.b.eng.now());
  });
  net.tb.a.eng.schedule_at(sim::ms(6), [&] {
    sim::Tick t2 = net.tb.a.eng.now();
    for (std::uint32_t i = 3; i < 6; ++i) t2 = net.send_tagged(t2, i, 4000);
  });
  net.tb.run();

  // All six arrive: the pool re-post after the reset left a working board.
  ASSERT_EQ(net.received.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(net.received[i], tagged(4000, i));
  }
  EXPECT_EQ(net.tb.b.driver.generation(), 1u);
  EXPECT_EQ(net.tb.b.driver.watchdog_resets(), 1u);
  EXPECT_EQ(net.tb.b.rxp.epoch(), 1u);
  EXPECT_EQ(net.tb.b.txp.epoch(), 1u);
  // The reset postmortem (the trace tail) was captured and streamed.
  EXPECT_FALSE(net.tb.b.driver.last_postmortem().empty());
  EXPECT_FALSE(pm.str().empty());
}

TEST(FaultE2E, RecycledHeaderBuffersSurviveResetWithParkedSends) {
  // Protocol headers live in buffers recycled at transmit completion
  // (§2.1.2). Sends parked behind a full transmit queue keep referencing
  // their header buffers across a watchdog reset, which replays them, and
  // the sends that follow the reset must not be handed those buffers while
  // a replayed chain still needs them. A rewritten UDP header fails the
  // checksum; a rewritten IP header loses or truncates its message, since
  // every message's length differs from its neighbours'.
  FaultNet net(/*faults_on_b=*/false);
  // A 0xff top tag byte: a chain remainder replayed without its IP header
  // parses as a length far beyond the PDU and is dropped, not delivered.
  auto tag = [](std::uint32_t i) { return 0xff000000u | i; };
  auto bytes = [](std::uint32_t i) { return std::size_t{500} + 37 * (i % 7); };
  std::uint32_t sent = 0;
  std::uint32_t first_parked = 0;
  auto send_next = [&](sim::Tick t) {
    const std::uint32_t i = sent++;
    return net.send_tagged(t, tag(i), bytes(i));
  };
  host::OsirisDriver& drv = net.tb.a.driver;

  net.tb.a.eng.schedule_at(0, [&] {
    sim::Tick t = net.tb.a.eng.now();
    while (!drv.tx_suspended()) t = send_next(t);
    first_parked = sent;  // every later send parks whole
    for (int k = 0; k < 8; ++k) t = send_next(t);
  });
  bool parked_at_reset = false;
  net.tb.a.eng.schedule_at(sim::us(20), [&] {
    parked_at_reset = drv.tx_suspended();
    sim::Tick t = drv.force_reset(net.tb.a.eng.now());
    for (int k = 0; k < 40; ++k) t = send_next(t);
  });
  net.tb.run();

  ASSERT_TRUE(parked_at_reset) << "the queue drained before the reset";
  EXPECT_EQ(drv.watchdog_resets(), 1u);
  std::set<std::uint32_t> seen;
  for (const auto& msg : net.received) {
    const std::uint32_t i = tag_of(msg) & 0xffffffu;
    ASSERT_LT(i, sent);
    EXPECT_EQ(msg, tagged(bytes(i), tag(i))) << "message " << i;
    EXPECT_TRUE(seen.insert(i).second) << "duplicate " << i;
  }
  // Replayed and post-reset sends all arrive; only chains already on the
  // board when it reset may be lost.
  for (std::uint32_t i = first_parked; i < sent; ++i) {
    EXPECT_TRUE(seen.contains(i)) << "lost message " << i;
  }
  EXPECT_EQ(net.sb->checksum_failures(), 0u);
}

TEST(FaultE2E, BoardStallTriggersWatchdogReset) {
  FaultNet net;
  // Wedge the receive firmware on its 40th cell (mid-message), as if the
  // i960 receive loop hit an infinite loop.
  net.fp.arm(fault::Point::kBoardRxStall, {.after = 40, .budget = 1});
  net.tb.b.start_watchdog(sim::ms(1), sim::ms(2), /*until=*/sim::ms(40));
  std::ostringstream pm;
  net.tb.b.driver.set_postmortem_stream(&pm);

  // One 1 KB message every 500 us for 20 ms. No ARQ here: messages sent
  // into the wedge are simply lost; the point is that the watchdog brings
  // the adaptor back and later traffic flows.
  for (std::uint32_t i = 0; i < 40; ++i) {
    net.tb.a.eng.schedule_at(sim::us(500) * i, [&net, i] {
      net.send_tagged(net.tb.a.eng.now(), i, 1024);
    });
  }
  net.tb.run();

  const NodeStats b = snapshot(net.tb.b);
  EXPECT_EQ(b.board_stalls, 1u);
  EXPECT_GE(b.watchdog_resets, 1u);
  EXPECT_GE(b.generation, 1u);
  EXPECT_GE(net.tb.b.rxp.epoch(), 1u);
  EXPECT_GE(net.tb.b.rxp.cells_stalled(), 1u);

  // Most of the stream survives; the wedge window (stall -> deadline ->
  // reset, ~3 ms = ~6 messages) is lost.
  EXPECT_GE(net.received.size(), 25u);
  EXPECT_LT(net.received.size(), 40u);
  std::set<std::uint32_t> seen;
  for (const auto& msg : net.received) {
    const std::uint32_t tag = tag_of(msg);
    EXPECT_EQ(msg, tagged(1024, tag));              // no corruption
    EXPECT_TRUE(seen.insert(tag).second) << tag;    // no duplicates
  }

  // Observability: the wedge and the reset are in the trace, and the
  // watchdog dumped the trace tail as a postmortem.
  EXPECT_GE(net.trace.count([](const sim::TraceEvent& e) {
    return std::string_view(e.event) == "wedge";
  }), 1u);
  EXPECT_GE(net.trace.count([](const sim::TraceEvent& e) {
    return std::string_view(e.component) == "drv" &&
           std::string_view(e.event) == "reset";
  }), 1u);
  EXPECT_FALSE(net.tb.b.driver.last_postmortem().empty());
  EXPECT_NE(pm.str().find("reset"), std::string::npos);
}

// ---------------------------------------------------------- RPC retries

TEST(Rpc, RetrySucceedsAfterLostRequest) {
  // The first request is corrupted by a transmit DMA error on the client
  // and dropped by the server's checksum; the client's retry policy
  // re-sends it after the timeout and the call completes.
  FaultNet net(/*faults_on_b=*/false, 0.0, /*faults_on_a=*/true);
  net.fp.arm(fault::Point::kDmaError, {.after = 2, .budget = 1});
  proto::RpcEndpoint client(net.tb.a.eng, *net.sa, net.tb.a.kernel_space,
                            net.tb.a.cpu, net.tb.a.cfg.machine);
  proto::RpcEndpoint server(net.tb.b.eng, *net.sb, net.tb.b.kernel_space,
                            net.tb.b.cpu, net.tb.b.cfg.machine);
  server.serve([](std::vector<std::uint8_t> req) {
    std::reverse(req.begin(), req.end());
    return req;
  });
  std::optional<std::vector<std::uint8_t>> got;
  client.call(0, net.vci, {1, 2, 3, 4},
              [&](sim::Tick, std::optional<std::vector<std::uint8_t>> r) {
                got = std::move(r);
              },
              /*timeout=*/sim::ms(1), proto::RpcRetryPolicy{.retries = 2});
  net.tb.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (std::vector<std::uint8_t>{4, 3, 2, 1}));
  EXPECT_EQ(client.retransmissions(), 1u);
  EXPECT_EQ(client.timeouts(), 0u);
  EXPECT_EQ(server.served(), 1u);
  EXPECT_EQ(net.fp.fired(fault::Point::kDmaError), 1u);
}

// ------------------------------------------------------------------- ARQ

TEST(Arq, InOrderExactlyOnceUnderCellLoss) {
  FaultNet net(/*faults_on_b=*/false, /*a_cell_loss=*/0.02);
  proto::ArqConfig ac;
  ac.window = 8;
  ac.rto = sim::us(500);
  ac.max_rto = sim::ms(5);
  ac.max_retries = 20;
  proto::ArqEndpoint arq_a(net.tb.a.eng, *net.sa, net.tb.a.kernel_space,
                           net.tb.a.cpu, net.tb.a.cfg.machine, ac);
  proto::ArqEndpoint arq_b(net.tb.b.eng, *net.sb, net.tb.b.kernel_space,
                           net.tb.b.cpu, net.tb.b.cfg.machine, ac);
  arq_a.bind(net.vci);
  arq_b.bind(net.vci);
  std::vector<std::vector<std::uint8_t>> got;
  arq_b.set_sink([&](sim::Tick, std::uint16_t,
                     std::vector<std::uint8_t>&& data) {
    got.push_back(std::move(data));
  });

  sim::Tick t = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    t = arq_a.send(t, net.vci, tagged(300, i));
  }
  net.tb.run();

  ASSERT_EQ(got.size(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(got[i], tagged(300, i)) << "message " << i;
  }
  EXPECT_GT(arq_a.retransmissions(), 0u);  // ~2% cell loss cost something
  EXPECT_TRUE(arq_a.idle());
  EXPECT_FALSE(arq_a.dead(net.vci));
  EXPECT_EQ(arq_b.misrouted(), 0u);
}

TEST(Rpc, OverArqServesEveryCallExactlyOnceUnderCellLoss) {
  // RpcEndpoint::use_arq on a 3000/600 pair whose links both lose cells:
  // requests and responses ride the ARQ channel, whose retransmissions
  // alone (no RPC-level retries) must get every call served exactly once
  // and answered with its own response.
  auto lossy = [](std::uint64_t seed) {
    NodeConfig c = make_3000_600_config();
    c.board.reassembly = "seq";
    c.link.cell_loss_p = 0.02;
    c.link.seed = seed;
    return c;
  };
  Testbed tb(lossy(7), lossy(11));
  const atm::Vci vci = tb.open_kernel_path();
  proto::StackConfig sc;
  sc.udp_checksum = true;
  auto sa = tb.a.make_stack(sc);
  auto sb = tb.b.make_stack(sc);
  proto::ArqConfig ac;
  ac.window = 8;
  ac.rto = sim::us(500);
  ac.max_rto = sim::ms(5);
  ac.max_retries = 20;
  proto::ArqEndpoint arq_a(tb.a.eng, *sa, tb.a.kernel_space, tb.a.cpu,
                           tb.a.cfg.machine, ac);
  proto::ArqEndpoint arq_b(tb.b.eng, *sb, tb.b.kernel_space, tb.b.cpu,
                           tb.b.cfg.machine, ac);
  arq_a.bind(vci);
  arq_b.bind(vci);
  proto::RpcEndpoint client(tb.a.eng, *sa, tb.a.kernel_space, tb.a.cpu,
                            tb.a.cfg.machine);
  proto::RpcEndpoint server(tb.b.eng, *sb, tb.b.kernel_space, tb.b.cpu,
                            tb.b.cfg.machine);
  client.use_arq(arq_a);
  server.use_arq(arq_b);

  constexpr std::uint32_t kCalls = 60;
  constexpr std::size_t kBytes = 300;
  std::map<std::uint32_t, int> served;  // request tag -> times served
  server.serve([&](std::vector<std::uint8_t> req) {
    ++served[tag_of(req)];
    std::reverse(req.begin(), req.end());
    return req;
  });
  std::vector<int> answered(kCalls, 0);
  std::uint32_t wrong = 0;
  sim::Tick t = 0;
  for (std::uint32_t i = 0; i < kCalls; ++i) {
    t = client.call(
        t, vci, tagged(kBytes, i),
        [&answered, &wrong, i](sim::Tick,
                               const std::optional<std::vector<std::uint8_t>>& r) {
          ++answered[i];
          std::vector<std::uint8_t> want = tagged(kBytes, i);
          std::reverse(want.begin(), want.end());
          if (!r || *r != want) ++wrong;
        },
        /*timeout=*/sim::sec(1));
  }
  tb.run();

  EXPECT_EQ(wrong, 0u);
  for (std::uint32_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(answered[i], 1) << "call " << i;
    EXPECT_EQ(served[i], 1) << "call " << i;
  }
  EXPECT_EQ(served.size(), kCalls);
  EXPECT_EQ(client.responses(), kCalls);
  EXPECT_EQ(client.timeouts(), 0u);
  EXPECT_EQ(client.stray(), 0u);
  EXPECT_EQ(server.served(), kCalls);
  // Both directions lost cells and the ARQ repaired it.
  EXPECT_GT(arq_a.retransmissions(), 0u);
  EXPECT_GT(arq_b.retransmissions(), 0u);
  EXPECT_TRUE(arq_a.idle());
  EXPECT_TRUE(arq_b.idle());
}

TEST(Arq, GiveUpIsTerminalWhenPeerUnreachable) {
  FaultNet net(/*faults_on_b=*/false, /*a_cell_loss=*/1.0);
  proto::ArqConfig ac;
  ac.rto = sim::us(200);
  ac.max_rto = sim::ms(1);
  ac.max_retries = 3;
  proto::ArqEndpoint arq_a(net.tb.a.eng, *net.sa, net.tb.a.kernel_space,
                           net.tb.a.cpu, net.tb.a.cfg.machine, ac);
  arq_a.bind(net.vci);
  arq_a.send(0, net.vci, tagged(100, 1));
  net.tb.run();  // must drain: the retry budget bounds the schedule

  EXPECT_TRUE(arq_a.dead(net.vci));
  EXPECT_GE(arq_a.gave_up(), 1u);
  EXPECT_EQ(arq_a.retransmissions(), 3u);
  EXPECT_TRUE(net.received.empty());
  // Further sends on the dead VCI are refused, not queued forever.
  arq_a.send(net.tb.now(), net.vci, tagged(100, 2));
  net.tb.run();
  EXPECT_GE(arq_a.gave_up(), 2u);
}

TEST(Arq, BacksOffAndDrainsAgainstRateLimitedPeer) {
  // Sustained overload: the sender's kernel transmit queue is capped by a
  // board-side token bucket far below the offered rate. The ARQ must back
  // off and drain — retransmissions are fine, livelock is not: every
  // message still arrives exactly once, the endpoint ends idle (no frame
  // stuck waiting forever), and the VCI never goes terminal.
  FaultNet net(/*faults_on_b=*/false);
  net.tb.a.txp.set_rate_limit(/*channel=*/0, /*bytes_per_sec=*/2e6,
                              /*burst_bytes=*/4096);
  proto::ArqConfig ac;
  ac.window = 8;
  ac.rto = sim::ms(5);  // above the per-frame pacing delay at 2 MB/s
  ac.max_rto = sim::ms(50);
  ac.max_retries = 30;
  proto::ArqEndpoint arq_a(net.tb.a.eng, *net.sa, net.tb.a.kernel_space,
                           net.tb.a.cpu, net.tb.a.cfg.machine, ac);
  proto::ArqEndpoint arq_b(net.tb.b.eng, *net.sb, net.tb.b.kernel_space,
                           net.tb.b.cpu, net.tb.b.cfg.machine, ac);
  arq_a.bind(net.vci);
  arq_b.bind(net.vci);
  std::vector<std::uint32_t> got;
  arq_b.set_sink([&](sim::Tick, std::uint16_t,
                     std::vector<std::uint8_t>&& data) {
    got.push_back(tag_of(data));
  });

  constexpr std::uint32_t kMessages = 100;
  sim::Tick t = 0;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    t = arq_a.send(t, net.vci, tagged(400, i));
  }
  net.tb.run();  // must terminate: pacing + bounded retries, no livelock

  ASSERT_EQ(got.size(), kMessages);
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[i], i) << "out of order under overload";
  }
  EXPECT_TRUE(arq_a.idle());
  EXPECT_FALSE(arq_a.dead(net.vci));
  EXPECT_GT(net.tb.a.txp.rate_deferrals(), 0u) << "the limit never bit";
  // ~100 x ~450 wire bytes at 2 MB/s: the cap, not the link, set the pace.
  EXPECT_GT(net.tb.now(), sim::ms(15));
}

// ------------------------------------------------- The acceptance soak

TEST(Arq, ResyncSurvivesForceResetRacingRetransmitTimer) {
  // Deterministic reproduction of the nastiest recovery interleaving: the
  // sender's transmit firmware wedges with ARQ frames unacked (so a
  // retransmit timer is in flight), the watchdog force-resets the adaptor
  // under that timer, and the session must resynchronize — re-posting the
  // window through the reborn adaptor — without ever delivering a
  // duplicate or reordering, and without the pending timer double-sending.
  FaultNet net(/*faults_on_b=*/false, /*a_cell_loss=*/0.0,
               /*faults_on_a=*/true);
  net.fp.arm(fault::Point::kBoardTxStall, {.probability = 0.0,
                                           .after = 25,
                                           .budget = 1});
  net.tb.a.start_watchdog(sim::ms(1), sim::ms(2), /*until=*/sim::sec(5));

  proto::ArqConfig ac;
  ac.window = 8;
  ac.rto = sim::us(500);  // shorter than the watchdog rescue: the timer
  ac.max_rto = sim::ms(4);  // fires into the wedge before the reset lands
  ac.max_retries = 20;
  proto::ArqEndpoint arq_a(net.tb.a.eng, *net.sa, net.tb.a.kernel_space,
                           net.tb.a.cpu, net.tb.a.cfg.machine, ac);
  proto::ArqEndpoint arq_b(net.tb.b.eng, *net.sb, net.tb.b.kernel_space,
                           net.tb.b.cpu, net.tb.b.cfg.machine, ac);
  arq_a.bind(net.vci);
  arq_b.bind(net.vci);

  constexpr std::uint32_t kMessages = 30;
  constexpr std::size_t kBytes = 200;
  std::uint32_t delivered = 0;
  std::uint64_t order_errors = 0, payload_errors = 0;
  arq_b.set_sink([&](sim::Tick, std::uint16_t,
                     std::vector<std::uint8_t>&& data) {
    if (data.size() != kBytes || tag_of(data) != delivered) ++order_errors;
    if (data != tagged(kBytes, tag_of(data))) ++payload_errors;
    ++delivered;
  });
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    net.tb.a.eng.schedule_at(
        static_cast<sim::Tick>(i) * sim::us(100), [&net, &arq_a, i] {
          arq_a.send(net.tb.a.eng.now(), net.vci, tagged(kBytes, i));
        });
  }
  net.tb.run();

  // The wedge bit, the watchdog rescued it, and the session resynced.
  EXPECT_EQ(net.fp.fired(fault::Point::kBoardTxStall), 1u);
  EXPECT_GE(net.tb.a.driver.watchdog_resets(), 1u);
  EXPECT_GE(arq_a.resyncs(), 1u);
  EXPECT_GT(arq_a.retransmissions(), 0u);

  // Exactly-once, in-order, byte-exact — and prompt convergence: the
  // sender is idle, not wedged behind a dead timer or a stale window.
  EXPECT_EQ(delivered, kMessages);
  EXPECT_EQ(order_errors, 0u);
  EXPECT_EQ(payload_errors, 0u);
  EXPECT_TRUE(arq_a.idle());
  EXPECT_FALSE(arq_a.dead(net.vci));
}

TEST(FaultSoak, MultiLayerFaultScheduleSurvives) {
  // 5000 ARQ messages through 1% cell loss, probabilistic DMA errors on
  // the receiver, and a mid-run receive-firmware wedge that only the
  // watchdog can clear. Required outcome: at least one adaptor reset, and
  // 100% in-order, exactly-once, byte-exact delivery.
  // A 16 K trace ring: deep enough that the mid-run reset record survives
  // to the end, shallow enough that the run demonstrably overflows it.
  FaultNet net(/*faults_on_b=*/true, /*a_cell_loss=*/0.01,
               /*faults_on_a=*/false, /*trace_cap=*/16384);
  net.fp.arm(fault::Point::kBoardRxStall, {.after = 20000, .budget = 1});
  net.fp.arm(fault::Point::kDmaError, {.probability = 0.0008, .budget = 10});
  net.tb.b.start_watchdog(sim::ms(1), sim::ms(3), /*until=*/sim::sec(10));

  proto::ArqConfig ac;
  ac.window = 16;
  ac.rto = sim::ms(2);
  ac.max_rto = sim::ms(20);
  ac.max_retries = 30;
  proto::ArqEndpoint arq_a(net.tb.a.eng, *net.sa, net.tb.a.kernel_space,
                           net.tb.a.cpu, net.tb.a.cfg.machine, ac);
  proto::ArqEndpoint arq_b(net.tb.b.eng, *net.sb, net.tb.b.kernel_space,
                           net.tb.b.cpu, net.tb.b.cfg.machine, ac);
  arq_a.bind(net.vci);
  arq_b.bind(net.vci);

  constexpr std::uint32_t kMessages = 5000;
  constexpr std::size_t kBytes = 200;
  std::uint32_t delivered = 0;
  std::uint64_t order_errors = 0, payload_errors = 0;
  arq_b.set_sink([&](sim::Tick, std::uint16_t,
                     std::vector<std::uint8_t>&& data) {
    if (data.size() != kBytes || tag_of(data) != delivered) ++order_errors;
    if (data != tagged(kBytes, tag_of(data))) ++payload_errors;
    ++delivered;
  });

  // Pace the application at one message per 300 us. Issuing all 5000
  // sends in one back-to-back burst would book the sending CPU solid for
  // the whole run, and every ack — hence every window advance — would
  // serialize behind that reservation backlog.
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    net.tb.a.eng.schedule_at(
        static_cast<sim::Tick>(i) * sim::us(300), [&net, &arq_a, i] {
          arq_a.send(net.tb.a.eng.now(), net.vci, tagged(kBytes, i));
        });
  }
  net.tb.run();  // no hang: every timer in the schedule is bounded

  // Graceful degradation: zero duplicates, zero corruption, full delivery.
  EXPECT_EQ(delivered, kMessages);
  EXPECT_EQ(order_errors, 0u);
  EXPECT_EQ(payload_errors, 0u);
  EXPECT_TRUE(arq_a.idle());
  EXPECT_FALSE(arq_a.dead(net.vci));

  // The fault schedule actually bit, and recovery actually ran.
  const NodeStats b = snapshot(net.tb.b);
  EXPECT_EQ(net.fp.fired(fault::Point::kBoardRxStall), 1u);
  EXPECT_GE(b.board_stalls, 1u);
  EXPECT_GE(b.watchdog_resets, 1u);
  EXPECT_GE(b.generation, 1u);
  EXPECT_GT(arq_a.retransmissions(), 0u);
  EXPECT_GE(net.trace.count([](const sim::TraceEvent& e) {
    return std::string_view(e.component) == "drv" &&
           std::string_view(e.event) == "reset";
  }), 1u);
  EXPECT_FALSE(net.tb.b.driver.last_postmortem().empty());
  // The long run overflowed the bounded trace ring — the dropped-event
  // counter says so instead of pretending the tail is the whole story.
  EXPECT_GT(net.trace.dropped_events(), 0u);

  // The stats formatter surfaces the fault/recovery lines.
  const std::string text = format_stats(b);
  EXPECT_NE(text.find("faults:"), std::string::npos);
  EXPECT_NE(text.find("recovery:"), std::string::npos);

  // After the carnage, independently-maintained counters must still
  // balance: every sealed cell hit the wire, every wire cell is delivered
  // or accounted as lost, delivery never exceeds reassembly.
  const std::vector<std::string> violations = osiris::obs::audit(net.tb);
  for (const std::string& v : violations) ADD_FAILURE() << "audit: " << v;
}

}  // namespace
}  // namespace osiris
