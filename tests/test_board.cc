// Board firmware tests: transmit segmentation via DMA, receive reassembly
// into host memory, interrupt discipline, DMA combining, authorization.
#include <gtest/gtest.h>

#include "adc/adc.h"
#include "osiris/harness.h"
#include "osiris/node.h"
#include "proto/message.h"
#include "sim/trace.h"

namespace osiris {
namespace {

struct Fixture {
  sim::Engine eng;
  std::unique_ptr<Node> node;

  explicit Fixture(NodeConfig cfg = make_3000_600_config()) {
    cfg.link.base_delay_us = 1.0;
    node = std::make_unique<Node>(eng, cfg);
    // Loop the node's transmit link back into its own receive processor.
    node->out.set_sink(
        [this](int lane, const atm::Cell& c) { node->rxp.on_cell(lane, c); });
  }
};

TEST(Board, LoopbackPduRoundTrip) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(200);

  std::vector<std::uint8_t> payload(5000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  std::vector<std::uint8_t> got;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
    got.resize(pdu.pdu_len);
    pdu.read_raw(n.pm, 0, got);
    return at;
  });

  const mem::VirtAddr va =
      n.kernel_space.alloc(static_cast<std::uint32_t>(payload.size()), 40);
  n.kernel_space.write(va, payload);
  const auto sc =
      n.kernel_space.scatter(va, static_cast<std::uint32_t>(payload.size()));
  n.driver.send(f.eng.now(), 200, sc);
  f.eng.run();

  EXPECT_EQ(got, payload);
  EXPECT_EQ(n.txp.pdus_sent(), 1u);
  EXPECT_EQ(n.rxp.pdus_completed(), 1u);
  EXPECT_EQ(n.driver.pdus_received(), 1u);
}

TEST(Board, ManyPdusKeepDataIntegrity) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(201);
  std::vector<std::vector<std::uint8_t>> sent, got;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView& pdu) {
    std::vector<std::uint8_t> d(pdu.pdu_len);
    pdu.read_raw(n.pm, 0, d);
    got.push_back(std::move(d));
    return at;
  });
  sim::Tick t = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    std::vector<std::uint8_t> payload(100 + i * 321);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(j + i * 17);
    }
    const mem::VirtAddr va = n.kernel_space.alloc(
        static_cast<std::uint32_t>(payload.size()), (i * 100) % 4096);
    n.kernel_space.write(va, payload);
    t = n.driver.send(
        t, 201,
        n.kernel_space.scatter(va, static_cast<std::uint32_t>(payload.size())));
    sent.push_back(std::move(payload));
  }
  f.eng.run();
  EXPECT_EQ(got, sent);  // in-order, intact
}

TEST(Board, ReceiveInterruptOnlyOnEmptyToNonEmpty) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(202);
  n.driver.set_rx_handler(
      [&](sim::Tick at, host::RxPduView&) { return at + sim::us(500); });

  // A burst of PDUs: far fewer interrupts than PDUs (§2.1.2).
  std::vector<std::uint8_t> pdu(2000, 1);
  n.rxp.start_generator(202, pdu, 50, 0);
  f.eng.run();
  EXPECT_EQ(n.driver.pdus_received(), 50u);
  EXPECT_LT(n.intc.raised(), 10u);
  EXPECT_GE(n.intc.raised(), 1u);
}

TEST(Board, DoubleCellDmaCombinesContiguousPayloads) {
  NodeConfig cfg = make_3000_600_config();
  cfg.board.double_cell_dma_rx = true;
  Fixture f(cfg);
  Node& n = *f.node;
  n.map_kernel_vci(203);
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) { return at; });
  std::vector<std::uint8_t> pdu(16000, 2);
  n.rxp.start_generator(203, pdu, 5, 0);
  f.eng.run();
  EXPECT_GT(n.rxp.combine_fraction(), 0.8) << "in-order cells should combine";
}

TEST(Board, SingleCellDmaNeverCombines) {
  NodeConfig cfg = make_3000_600_config();
  cfg.board.double_cell_dma_rx = false;
  Fixture f(cfg);
  Node& n = *f.node;
  n.map_kernel_vci(204);
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) { return at; });
  std::vector<std::uint8_t> pdu(8000, 3);
  n.rxp.start_generator(204, pdu, 3, 0);
  f.eng.run();
  EXPECT_EQ(n.rxp.combined_dma_ops(), 0u);
}

TEST(Board, TransmitQueueFullSuspendsAndResumes) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(205);
  std::uint64_t received = 0;
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) {
    ++received;
    return at;
  });
  // Push far more PDUs than the 64-entry queue holds, back to back.
  std::vector<std::uint8_t> payload(100, 9);
  const mem::VirtAddr va = n.kernel_space.alloc(100);
  n.kernel_space.write(va, payload);
  const auto sc = n.kernel_space.scatter(va, 100);
  sim::Tick t = 0;
  for (int i = 0; i < 300; ++i) t = n.driver.send(t, 205, sc);
  f.eng.run();
  // Every PDU makes it through the transmit path (suspension + resume on
  // the half-empty interrupt); the receiver may shed load at the free
  // queue (§3.1) but PDUs are conserved.
  EXPECT_EQ(n.txp.pdus_sent(), 300u);
  EXPECT_GE(n.driver.tx_suspensions(), 1u);
  EXPECT_EQ(received + n.rxp.pdus_dropped_nobuf() +
                n.rxp.pdus_dropped_recvfull(),
            300u);
  EXPECT_GT(received, 100u);
}

TEST(Board, FreeQueueExhaustionDropsPdusBeforeHostCycles) {
  // §3.1: when no buffers remain, the board drops the PDU — the host never
  // sees it.
  NodeConfig cfg = make_3000_600_config();
  cfg.driver.rx_buffers = 4;
  Fixture f(cfg);
  Node& n = *f.node;
  n.map_kernel_vci(206);
  // The driver thread is slow: hold each PDU a long time.
  n.driver.set_rx_handler(
      [&](sim::Tick at, host::RxPduView&) { return at + sim::ms(50); });
  std::vector<std::uint8_t> pdu(16000, 4);
  n.rxp.start_generator(206, pdu, 30, 0);
  f.eng.run();
  EXPECT_GT(n.rxp.pdus_dropped_nobuf(), 0u);
  EXPECT_LT(n.driver.pdus_received(), 30u);
}

TEST(Board, TailAdvanceSignalsCompletionWithoutInterrupt) {
  Fixture f;
  Node& n = *f.node;
  n.map_kernel_vci(207);
  n.driver.set_rx_handler([&](sim::Tick at, host::RxPduView&) { return at; });
  std::vector<std::uint8_t> payload(500, 5);
  const mem::VirtAddr va = n.kernel_space.alloc(500);
  n.kernel_space.write(va, payload);
  const auto sc = n.kernel_space.scatter(va, 500);
  n.driver.send(0, 207, sc);
  f.eng.run();
  // One receive interrupt; no transmit-completion interrupt.
  EXPECT_EQ(n.intc.raised(), 1u);
  // Pages were unwired after a later send reaped the completion.
  n.driver.send(f.eng.now(), 207, sc);
  f.eng.run();
  EXPECT_LE(n.driver.wiring().wired_frames(), 2u);
}

// Transmit priority scheduling, tail-publish ordering, the event trace,
// firmware instruction budgets (the paper's OC-12 reassembly claim), and
// generator throttling.

adc::Adc::Deps deps_of(Node& n) {
  return adc::Adc::Deps{n.eng,   n.cfg.machine, n.cpu, n.intc, n.bus, n.pm,
                        n.cache, n.frames,      n.ram, n.txp,  n.rxp};
}

TEST(Board2, HigherPriorityAdcTransmitsFirst) {
  // Two ADCs queue PDUs at the same instant; the transmit processor serves
  // the higher-priority queue's PDUs first (§3.2: "The priority is used by
  // the transmit processor to determine the order of transmissions").
  Testbed tb(make_3000_600_config(), make_3000_600_config());
  proto::StackConfig sc;
  sc.mode = proto::StackMode::kRawAtm;
  adc::Adc lo_tx(deps_of(tb.a), 1, {910}, /*priority=*/1, sc);
  adc::Adc hi_tx(deps_of(tb.a), 2, {911}, /*priority=*/5, sc);
  adc::Adc lo_rx(deps_of(tb.b), 1, {910}, 1, sc);
  adc::Adc hi_rx(deps_of(tb.b), 2, {911}, 5, sc);

  std::vector<int> order;  // 0 = low, 1 = high
  lo_rx.set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    order.push_back(0);
  });
  hi_rx.set_sink([&](sim::Tick, std::uint16_t, std::vector<std::uint8_t>&&) {
    order.push_back(1);
  });

  std::vector<std::uint8_t> data(8000, 0x42);
  proto::Message ml = proto::Message::from_payload(lo_tx.space(), data);
  proto::Message mh = proto::Message::from_payload(hi_tx.space(), data);
  lo_tx.authorize(ml.scatter());
  hi_tx.authorize(mh.scatter());

  // Queue 4 low-priority PDUs first, then 4 high-priority ones — all before
  // the board's poll latency elapses, so the firmware picks by priority.
  sim::Tick t = 0;
  for (int i = 0; i < 4; ++i) t = lo_tx.send(t, 910, ml);
  sim::Tick t2 = 0;
  for (int i = 0; i < 4; ++i) t2 = hi_tx.send(t2, 911, mh);
  tb.run();

  ASSERT_EQ(order.size(), 8u);
  // The first PDU may already be in flight, but among the rest the high-
  // priority channel must dominate the front.
  int hi_in_first_four = 0;
  for (int i = 0; i < 4; ++i) hi_in_first_four += order[static_cast<size_t>(i)];
  EXPECT_GE(hi_in_first_four, 3);
}

TEST(Board2, TraceRecordsTheLifeOfAPdu) {
  sim::Trace trace;
  NodeConfig cfg = make_3000_600_config();
  cfg.trace = &trace;
  sim::Engine eng;
  Node n(eng, cfg);
  n.out.set_sink([&](int lane, const atm::Cell& c) { n.rxp.on_cell(lane, c); });
  n.map_kernel_vci(920);
  n.driver.set_rx_handler([](sim::Tick at, host::RxPduView&) { return at; });
  std::vector<std::uint8_t> data(3000, 1);
  const mem::VirtAddr va = n.kernel_space.alloc(3000);
  n.kernel_space.write(va, data);
  n.driver.send(0, 920, n.kernel_space.scatter(va, 3000));
  eng.run();

  const auto is = [](const char* c, const char* e) {
    return [c, e](const sim::TraceEvent& ev) {
      return std::string_view(ev.component) == c &&
             std::string_view(ev.event) == e;
    };
  };
  EXPECT_EQ(trace.count(is("tx", "pdu_start")), 1u);
  EXPECT_EQ(trace.count(is("tx", "pdu_done")), 1u);
  EXPECT_EQ(trace.count(is("rx", "pdu_done")), 1u);
  EXPECT_EQ(trace.count(is("rx", "irq_nonempty")), 1u);
  EXPECT_EQ(trace.count(is("drv", "deliver")), 1u);
  // Events appear in causal order.
  sim::Tick tx_start = 0, drv_deliver = 0;
  for (const auto& e : trace.events()) {
    if (is("tx", "pdu_start")(e)) tx_start = e.at;
    if (is("drv", "deliver")(e)) drv_deliver = e.at;
  }
  EXPECT_LT(tx_start, drv_deliver);
  EXPECT_FALSE(trace.dump().empty());
}

TEST(Board2, TraceRingOverwritesOldest) {
  sim::Trace trace(8);
  for (std::uint64_t i = 0; i < 20; ++i) trace.record(i, "t", "e", i, 0);
  const auto evs = trace.events();
  ASSERT_EQ(evs.size(), 8u);
  EXPECT_EQ(evs.front().a, 12u);
  EXPECT_EQ(evs.back().a, 19u);
  EXPECT_EQ(trace.recorded(), 20u);
}

TEST(Board2, ReassemblyMeetsTheOc12InstructionBudget) {
  // §5: "we were still able to reassemble ATM cells in the common case and
  // in the absence of misordering at approximately OC-12 speeds in
  // software". At full link rate the receive i960 must not saturate.
  sim::Engine eng;
  Node n(eng, make_3000_600_config());
  proto::StackConfig sc;
  auto stack = n.make_stack(sc);
  const auto r = harness::receive_throughput(n, *stack, 930, 64 * 1024, 30, sc);
  EXPECT_GT(r.mbps, 500.0) << "the host absorbs at ~link speed";
  const double i960_util = n.rxp.i960().utilization();
  EXPECT_LT(i960_util, 1.0);
  EXPECT_GT(i960_util, 0.25) << "the budget is tight, as the paper says";
}

TEST(Board2, GeneratorThrottlesInsteadOfDropping) {
  // The fictitious-PDU generator models "as fast as the host can absorb":
  // against a slow host it must stall, not overflow the FIFO.
  sim::Engine eng;
  NodeConfig cfg = make_5000_200_config();
  cfg.board.double_cell_dma_rx = false;
  Node n(eng, cfg);
  proto::StackConfig sc;
  auto stack = n.make_stack(sc);
  const auto r = harness::receive_throughput(n, *stack, 931, 64 * 1024, 20, sc);
  EXPECT_EQ(r.messages, 20u);
  EXPECT_EQ(n.rxp.cells_fifo_dropped(), 0u);
}

TEST(Board2, TailPublishesFollowBufferCompletionOrder) {
  // The host-visible tail pointer advances buffer by buffer, in order, as
  // transmission completes — the §2.1.2 completion-signalling mechanism.
  sim::Engine eng;
  Node n(eng, make_3000_600_config());
  n.out.set_sink([&](int lane, const atm::Cell& c) { n.rxp.on_cell(lane, c); });
  n.map_kernel_vci(940);
  n.driver.set_rx_handler([](sim::Tick at, host::RxPduView&) { return at; });

  // Watch the tail word of the kernel transmit queue.
  const dpram::QueueLayout lay = n.kernel_layout.tx;
  std::vector<std::uint32_t> tail_values;
  std::function<void()> poll = [&] {
    const std::uint32_t t = n.ram.read(dpram::Side::kHost, lay.tail_word());
    if (tail_values.empty() || tail_values.back() != t) tail_values.push_back(t);
    if (eng.pending() > 0) eng.schedule(sim::us(5), poll);
  };
  eng.schedule(0, poll);

  // A 3-buffer chain.
  std::vector<mem::PhysBuffer> chain;
  for (int i = 0; i < 3; ++i) {
    const mem::VirtAddr va = n.kernel_space.alloc(4000);
    const auto sc = n.kernel_space.scatter(va, 4000);
    chain.insert(chain.end(), sc.begin(), sc.end());
  }
  n.driver.send(0, 940, chain);
  eng.run();

  // The tail must have advanced monotonically (mod capacity) through every
  // descriptor.
  ASSERT_GE(tail_values.size(), 2u);
  EXPECT_EQ(tail_values.back(),
            static_cast<std::uint32_t>(chain.size()) % lay.capacity);
  for (std::size_t i = 1; i < tail_values.size(); ++i) {
    EXPECT_GT(tail_values[i], tail_values[i - 1]);
  }
}

TEST(Board2, DpramAccessCountsScaleWithDescriptors) {
  sim::Engine eng;
  Node n(eng, make_3000_600_config());
  n.out.set_sink([&](int lane, const atm::Cell& c) { n.rxp.on_cell(lane, c); });
  n.map_kernel_vci(950);
  n.driver.set_rx_handler([](sim::Tick at, host::RxPduView&) { return at; });
  n.ram.reset_stats();

  const mem::VirtAddr va = n.kernel_space.alloc(1000);
  n.driver.send(0, 950, n.kernel_space.scatter(va, 1000));
  eng.run();
  const std::uint64_t one_buf = n.ram.host_accesses();

  n.ram.reset_stats();
  std::vector<mem::PhysBuffer> chain;
  for (int i = 0; i < 4; ++i) {
    const mem::VirtAddr v2 = n.kernel_space.alloc(1000);
    const auto sc = n.kernel_space.scatter(v2, 1000);
    chain.insert(chain.end(), sc.begin(), sc.end());
  }
  n.driver.send(eng.now(), 950, chain);
  eng.run();
  const std::uint64_t four_buf = n.ram.host_accesses();

  EXPECT_GT(four_buf, one_buf);
  EXPECT_LT(four_buf, one_buf * 4) << "fixed costs amortize across the chain";
}

}  // namespace
}  // namespace osiris
