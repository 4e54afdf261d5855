#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "atm/checksum.h"
#include "atm/sar.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "mem/paging.h"
#include "mem/phys.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "osiris/audit.h"
#include "osiris/harness.h"
#include "osiris/stats.h"
#include "proto/message.h"
#include "report.h"

namespace perfbench {

using namespace osiris;

namespace {

// Paper references (sim vs paper): Figure 2 double-cell plateau, Figure 4
// maximal transmit throughput, Table 1 UDP/IP 1-byte round trip on the
// DEC 5000/200.
constexpr double kPaperRxMbps = 379.0;
constexpr double kPaperTxMbps = 325.0;
constexpr double kPaperRttUs = 598.0;

constexpr std::uint32_t kBulkBytes = 16 * 1024;
constexpr double kTicksPerUs = 1e6;  // sim::Tick is a picosecond

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void expect_eq(Rep& r, const std::string& what, std::uint64_t lhs,
               std::uint64_t rhs) {
  if (lhs == rhs) return;
  std::ostringstream os;
  os << what << ": " << lhs << " != " << rhs;
  r.errors.push_back(os.str());
}

/// Model-level statistics of one node folded into a fingerprint: the
/// modelled hardware's counters and utilizations, nothing the simulator
/// core counts about itself.
void fingerprint_node(Fnv& f, Node& n) {
  const NodeStats s = snapshot(n);
  for (const std::uint64_t v :
       {s.pdus_sent, s.cells_sent, s.tx_dma_ops, s.tx_dma_splits,
        s.tx_suspensions, s.cells_received, s.cells_generated,
        s.cells_fifo_dropped, s.rx_dma_ops, s.pdus_completed,
        s.pdus_dropped_nobuf, s.pdus_dropped_recvfull, s.pdus_dropped_quota,
        s.pdus_evicted, s.interrupts, s.driver_pdus_received,
        s.dpram_host_accesses, s.dpram_board_accesses, s.cache_stale_reads,
        s.cache_dma_stale_lines, n.out.cells_sent(), n.out.cells_lost()}) {
    f.add(v);
  }
  f.add(s.bus_utilization);
  f.add(s.cpu_utilization);
}

/// PDUs that reached the board are either completed or dropped by a
/// counted board policy; completed PDUs are either delivered to the driver
/// or dropped by a counted receive-queue policy. Returns the PDUs the board
/// dropped.
std::uint64_t check_rx_books(Rep& r, const std::string& who, Node& n,
                             std::uint64_t arrived_pdus) {
  const NodeStats s = snapshot(n);
  const std::uint64_t board_drops = s.pdus_dropped_nobuf +
                                    s.pdus_dropped_quota + s.pdus_evicted;
  expect_eq(r, who + ": PDUs arrived vs completed + nobuf + quota + evicted",
            arrived_pdus, s.pdus_completed + board_drops);
  const std::uint64_t queue_drops =
      s.pdus_dropped_recvfull + s.dead_channel_drops;
  expect_eq(r, who + ": PDUs completed vs delivered + recvfull + dead",
            s.pdus_completed, s.driver_pdus_received + queue_drops);
  expect_eq(r, who + ": fifo cell drops", s.cells_fifo_dropped, 0);
  return board_drops + queue_drops;
}

/// Wire conservation for the link leaving `src` towards `dst`.
void check_link_books(Rep& r, const std::string& who, Node& src, Node& dst) {
  expect_eq(r, who + ": link cells sent vs received + lost + hec",
            src.out.cells_sent(),
            dst.rxp.cells_received() - dst.rxp.cells_generated() +
                src.out.cells_lost() + src.out.cells_hec_dropped());
}

/// Probes a traced repetition attaches.
struct Probes {
  sim::Log2Histogram step_ns;  // Engine::set_step_probe: ns per same-tick batch
  obs::PduSpans spans[2];      // one per node: spans are thread-confined
};

/// Reads a gauge register_metrics() published; a missing name is an error
/// (a renamed counter must not silently read as zero).
double gauge(const obs::Snapshot& s, const std::string& name) {
  for (const auto& g : s.gauges) {
    if (g.name == name) return g.value;
  }
  throw std::runtime_error("registry has no gauge " + name);
}

const obs::Snapshot::Hist* hist(const obs::Snapshot& s, const std::string& name) {
  for (const auto& h : s.hists) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// Per-layer metrics of the nodes of a traced repetition, from a registry
/// snapshot (one registry per node, aggregated on read), the engines'
/// Stats and the probes. `ops` is the repetition's completed operations.
void node_layers(Layers& out, const std::vector<Node*>& nodes,
                 const std::vector<sim::Engine*>& engines, const Probes& pr,
                 double ops) {
  std::vector<std::unique_ptr<obs::Registry>> regs;
  std::vector<const obs::Registry*> shards;
  std::vector<obs::Snapshot> per_node;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    regs.push_back(std::make_unique<obs::Registry>());
    register_metrics(*regs.back(), *nodes[i]);
    pr.spans[i].register_into(*regs.back(), "span.");
    shards.push_back(regs.back().get());
    per_node.push_back(regs.back()->snapshot());
  }
  const obs::Snapshot all = obs::aggregate(shards);
  const auto sum = [&](const std::string& n) { return gauge(all, n); };
  const auto max = [&](const std::string& n) {
    double m = 0;
    for (const auto& s : per_node) m = std::max(m, gauge(s, n));
    return m;
  };

  const double rx_dma = sum("rx.dma_ops");
  double combined = 0;
  for (const auto& s : per_node) {
    combined += gauge(s, "rx.combine_fraction") * gauge(s, "rx.dma_ops");
  }
  out["board.rx_cells_per_op"] = ratio(sum("rx.cells_received"), ops);
  out["board.rx_nobuf_drops"] = sum("rx.pdus_dropped_nobuf");
  out["board.rx_combine_frac"] = ratio(combined, rx_dma);
  out["board.tx_cells_per_op"] = ratio(sum("tx.cells_sent"), ops);
  out["board.tx_dma_splits_per_op"] = ratio(sum("tx.dma_splits"), ops);
  out["tc.dma_per_op"] = ratio(sum("tx.dma_ops") + rx_dma, ops);
  out["tc.bus_util"] = max("host.bus_utilization");
  out["flow.probes_per_lookup"] =
      ratio(sum("flow.probed_buckets"), sum("flow.lookups"));
  out["mem.cache_stale_reads"] = sum("host.cache_stale_reads");
  out["host.irqs_per_pdu"] =
      ratio(sum("host.interrupts"), sum("host.pdus_received"));
  out["host.cpu_util"] = max("host.cpu_utilization");
  out["host.tx_suspensions"] = sum("tx.suspensions");
  out["dpram.host_accesses_per_pdu"] =
      ratio(sum("host.dpram_host_accesses"),
            sum("tx.pdus_sent") + sum("host.pdus_received"));

  // Counters register_metrics() does not publish.
  double stale_lines = 0, lost = 0;
  for (Node* n : nodes) {
    stale_lines += static_cast<double>(n->cache.dma_stale_lines());
    lost += static_cast<double>(n->out.cells_lost());
  }
  out["mem.cache_stale_lines_per_op"] = ratio(stale_lines, ops);
  out["link.cells_lost"] = lost;

  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Stage::kEndToEnd);
       ++i) {
    const std::string st = obs::stage_name(static_cast<obs::Stage>(i));
    const auto* h = hist(all, "span." + st);
    out["span." + st + "_us_p50"] = h == nullptr ? 0.0 : h->p50 / kTicksPerUs;
  }
  const auto* e2e = hist(all, "span.e2e");
  out["span.e2e_us_p50"] = e2e == nullptr ? 0.0 : e2e->p50 / kTicksPerUs;
  out["span.e2e_us_p99"] = e2e == nullptr ? 0.0 : e2e->p99 / kTicksPerUs;

  double dispatched = 0, far = 0;
  for (sim::Engine* e : engines) {
    const sim::Engine::Stats st = e->stats();
    dispatched += static_cast<double>(st.dispatched);
    far += static_cast<double>(st.far_scheduled);
  }
  // Boxed events are metered process-wide, so the first engine's count
  // (it was constructed first) already covers every engine.
  out["sim.boxed_events"] =
      static_cast<double>(engines.front()->stats().boxed_events);
  out["sim.events_per_op"] = ratio(dispatched, ops);
  out["sim.far_frac"] = ratio(far, dispatched);
  out["sim.step_ns_p50"] = pr.step_ns.quantile(0.50);
  out["sim.step_ns_p99"] = pr.step_ns.quantile(0.99);
}

void group_layers(Layers& out, const sim::EngineGroup& g, double ops) {
  const sim::EngineGroup::Stats st = g.stats();
  out["group.rounds_per_op"] = ratio(static_cast<double>(st.rounds), ops);
  out["group.remote_per_op"] = ratio(static_cast<double>(st.remote_events), ops);
  const sim::EngineGroup::PhaseProfile p = g.profile();
  const auto ns = [](const sim::Log2Histogram& h) {
    return static_cast<double>(h.sum());
  };
  const double total = ns(p.drain_ns) + ns(p.dispatch_ns) + ns(p.stall_ns) +
                       ns(p.barrier_ns);
  out["group.dispatch_share"] = ratio(ns(p.dispatch_ns), total);
  out["group.barrier_share"] = ratio(ns(p.barrier_ns), total);
}

double err_pct(double sim_value, double paper) {
  return std::abs(sim_value - paper) / paper * 100.0;
}

/// The UDP fragments of one message carrying `payload`, as the protocol
/// stack would put them on the wire (UDP checksum off).
std::vector<std::vector<std::uint8_t>> udp_fragments(
    const std::vector<std::uint8_t>& payload, const proto::StackConfig& sc) {
  auto frags = harness::make_udp_fragments(
      static_cast<std::uint32_t>(payload.size()), sc.ip_mtu, false);
  for (auto& f : frags) {
    const std::uint32_t off = (std::uint32_t{f[6]} << 24) |
                              (std::uint32_t{f[7]} << 16) |
                              (std::uint32_t{f[8]} << 8) | f[9];
    for (std::size_t i = proto::kIpHeader; i < f.size(); ++i) {
      const std::size_t pos = off + (i - proto::kIpHeader);
      if (pos >= proto::kUdpHeader) f[i] = payload[pos - proto::kUdpHeader];
    }
  }
  return frags;
}

// ---------------------------------------------------------------------------
// rx_bulk: Figure 2, one DEC 5000/200, the board's generator sending 16 KB
// UDP messages open-loop at link rate.
class RxBulk final : public Workload {
 public:
  explicit RxBulk(std::uint64_t seed)
      : seed_(derive_seed(seed, 1)),
        payload_(pattern_bytes(derive_seed(seed, 2), kBulkBytes)),
        frags_(udp_fragments(payload_, sc_)) {}

  NodeConfig node_config() const override {
    NodeConfig c = make_5000_200_config();
    c.seed = seed_;
    return c;
  }
  std::vector<std::vector<std::uint8_t>> pdus() const override { return frags_; }

  Rep run(bool traced) override {
    static constexpr std::uint64_t kMsgs = 1000;
    static constexpr atm::Vci kVci = 700;
    Rep r;
    Probes pr;
    const auto t0 = Clock::now();
    NodeConfig cfg = node_config();
    if (traced) cfg.spans = &pr.spans[0];
    sim::Engine eng;
    Node n(eng, cfg);
    auto stack = n.make_stack(sc_);
    n.map_kernel_vci(kVci);

    std::uint64_t delivered = 0, bad = 0;
    sim::Tick first = 0, last = 0;
    const host::MachineConfig& mc = n.cfg.machine;
    stack->set_sink([&](sim::Tick at, atm::Vci, std::vector<std::uint8_t>&& d) {
      if (d != payload_) ++bad;
      const sim::Tick t = n.cpu.exec(at, host::Work{mc.app_recv, 0});
      if (delivered == 0) first = t;
      last = t;
      ++delivered;
    });
    n.rxp.start_generator_multi(kVci, frags_, kMsgs, 0);
    if (traced) eng.set_step_probe(&pr.step_ns);
    r.setup_s = seconds_since(t0);

    const auto t1 = Clock::now();
    eng.run();
    r.run_s = seconds_since(t1);

    const std::uint64_t per_msg = frags_.size();
    std::uint64_t cells_per_msg = 0;
    for (const auto& f : frags_) {
      cells_per_msg += atm::cells_for(static_cast<std::uint32_t>(f.size()));
    }
    expect_eq(r, "generator cells", n.rxp.cells_generated(),
              kMsgs * cells_per_msg);
    expect_eq(r, "board cells received vs generated", n.rxp.cells_received(),
              n.rxp.cells_generated());
    const std::uint64_t dropped = check_rx_books(r, "rx", n, kMsgs * per_msg);
    expect_eq(r, "driver PDUs vs delivered messages", n.driver.pdus_received(),
              delivered * per_msg);
    expect_eq(r, "PDUs offered vs delivered + dropped", kMsgs * per_msg,
              delivered * per_msg + dropped);

    r.offered = kMsgs;
    r.completed = delivered;
    r.failed = bad;
    r.events = eng.dispatched();
    const double mbps =
        delivered < 2 ? 0.0
                      : sim::mbps(std::uint64_t{kBulkBytes} * (delivered - 1),
                                  last - first);
    Fnv f;
    fingerprint_node(f, n);
    f.add(delivered);
    f.add(first);
    f.add(last);
    f.add(eng.now());
    r.fingerprint = f.value();
    r.layers["sim.goodput_mbps"] = mbps;
    r.layers["paper.err_pct"] = err_pct(mbps, kPaperRxMbps);
    if (traced) {
      node_layers(r.layers, {&n}, {&eng}, pr, static_cast<double>(delivered));
    }
    std::ostringstream note;
    note << "rx_bulk: " << delivered << "/" << kMsgs << " messages delivered, "
         << snapshot(n).pdus_dropped_nobuf << " no-buffer drops, goodput "
         << mbps << " Mbps (sim), paper " << kPaperRxMbps;
    r.notes.push_back(note.str());
    return r;
  }

 private:
  proto::StackConfig sc_{};
  std::uint64_t seed_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::vector<std::uint8_t>> frags_;
};

/// Both testbed nodes' configs, with frame order and link seeded from one
/// workload seed.
std::array<NodeConfig, 2> seeded_pair(const NodeConfig& base,
                                      std::uint64_t seed) {
  std::array<NodeConfig, 2> c{base, base};
  for (std::uint64_t i = 0; i < 2; ++i) {
    c[i].seed = derive_seed(seed, 11 + i);
    c[i].link.seed = derive_seed(seed, 13 + i);
  }
  return c;
}

// ---------------------------------------------------------------------------
// tx_bulk: Figure 4, a DEC 3000/600 pair, the sender pumping 16 KB messages
// back to back (closed loop on the transmit queue), goodput at the receiver.
class TxBulk final : public Workload {
 public:
  static constexpr std::size_t kDistinct = 8;  // payload ring, checked in order

  explicit TxBulk(std::uint64_t seed) : seed_(seed) {
    for (std::size_t k = 0; k < kDistinct; ++k) {
      payloads_.push_back(pattern_bytes(derive_seed(seed, 20 + k), kBulkBytes));
    }
  }

  NodeConfig node_config() const override {
    return seeded_pair(make_3000_600_config(), seed_)[0];
  }
  std::vector<std::vector<std::uint8_t>> pdus() const override {
    return udp_fragments(payloads_[0], proto::StackConfig{});
  }

  Rep run(bool traced) override {
    static constexpr std::uint64_t kMsgs = 600;
    Rep r;
    Probes pr;
    const auto t0 = Clock::now();
    auto [ca, cb] = seeded_pair(make_3000_600_config(), seed_);
    if (traced) {
      ca.spans = &pr.spans[0];
      cb.spans = &pr.spans[1];
    }
    Testbed tb(ca, cb);
    const atm::Vci vci = tb.open_kernel_path();
    const proto::StackConfig sc;
    auto sa = tb.a.make_stack(sc);
    auto sb = tb.b.make_stack(sc);
    std::vector<proto::Message> msgs;
    for (const auto& p : payloads_) {
      msgs.push_back(proto::Message::from_payload(tb.a.kernel_space, p, 0));
    }

    std::uint64_t delivered = 0, bad = 0;
    sim::Tick first = 0, last = 0;
    sb->set_sink([&](sim::Tick at, atm::Vci, std::vector<std::uint8_t>&& d) {
      if (d != payloads_[delivered % kDistinct]) ++bad;
      if (delivered == 0) first = at;
      last = at;
      ++delivered;
    });
    // The sending program issues the next send as soon as the previous one
    // returns, and blocks while the transmit queue is full until the
    // driver's half-empty resume fires (as harness::transmit_throughput).
    const host::MachineConfig& mc = tb.a.cfg.machine;
    std::function<void(sim::Tick, std::uint64_t)> pump =
        [&](sim::Tick t, std::uint64_t i) {
          while (i < kMsgs) {
            t = tb.a.cpu.exec(t, host::Work{mc.app_send, 0});
            t = sa->send(t, vci, msgs[i % kDistinct]);
            ++i;
            if (tb.a.driver.tx_suspended()) {
              tb.a.driver.set_tx_resume([&pump, i](sim::Tick rt) { pump(rt, i); });
              return;
            }
          }
        };
    if (traced) {
      tb.group.partition(0).set_step_probe(&pr.step_ns);
      tb.group.partition(1).set_step_probe(&pr.step_ns);
      tb.group.enable_profiling();
    }
    r.setup_s = seconds_since(t0);

    const auto t1 = Clock::now();
    pump(tb.now(), 0);
    tb.run();
    r.run_s = seconds_since(t1);

    for (const std::string& v : obs::audit(tb)) r.errors.push_back("audit: " + v);
    check_link_books(r, "a->b", tb.a, tb.b);
    check_link_books(r, "b->a", tb.b, tb.a);
    const std::uint64_t dropped =
        check_rx_books(r, "b", tb.b, tb.a.txp.pdus_sent());
    expect_eq(r, "sender PDUs", tb.a.txp.pdus_sent(), kMsgs);
    expect_eq(r, "messages offered vs delivered + dropped", kMsgs,
              delivered + dropped);

    r.offered = kMsgs;
    r.completed = delivered;
    r.failed = bad;
    r.events = tb.dispatched();
    const double mbps =
        delivered < 2 ? 0.0
                      : sim::mbps(std::uint64_t{kBulkBytes} * (delivered - 1),
                                  last - first);
    Fnv f;
    fingerprint_node(f, tb.a);
    fingerprint_node(f, tb.b);
    f.add(delivered);
    f.add(first);
    f.add(last);
    f.add(tb.now());
    r.fingerprint = f.value();
    r.layers["sim.goodput_mbps"] = mbps;
    r.layers["paper.err_pct"] = err_pct(mbps, kPaperTxMbps);
    if (traced) {
      const double ops = static_cast<double>(delivered);
      node_layers(r.layers, {&tb.a, &tb.b},
                  {&tb.group.partition(0), &tb.group.partition(1)}, pr, ops);
      group_layers(r.layers, tb.group, ops);
    }
    std::ostringstream note;
    note << "tx_bulk: " << delivered << "/" << kMsgs << " messages delivered, "
         << tb.a.driver.tx_suspensions() << " sender suspensions, goodput "
         << mbps << " Mbps (sim), paper " << kPaperTxMbps;
    r.notes.push_back(note.str());
    return r;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::vector<std::uint8_t>> payloads_;
};

// ---------------------------------------------------------------------------
// rpc_small: Table 1, 1-byte UDP ping-pong on a DEC 5000/200 pair, one
// message outstanding.
class RpcSmall final : public Workload {
 public:
  static constexpr std::size_t kDistinct = 8;

  explicit RpcSmall(std::uint64_t seed)
      : seed_(seed), bytes_(pattern_bytes(derive_seed(seed, 30), kDistinct)) {}

  NodeConfig node_config() const override {
    return seeded_pair(make_5000_200_config(), seed_)[0];
  }
  std::vector<std::vector<std::uint8_t>> pdus() const override {
    return udp_fragments({bytes_[0]}, proto::StackConfig{});
  }

  Rep run(bool traced) override {
    static constexpr std::uint64_t kTrips = 5000;
    Rep r;
    Probes pr;
    const auto t0 = Clock::now();
    auto [ca, cb] = seeded_pair(make_5000_200_config(), seed_);
    if (traced) {
      ca.spans = &pr.spans[0];
      cb.spans = &pr.spans[1];
    }
    Testbed tb(ca, cb);
    const atm::Vci vci = tb.open_kernel_path();
    const proto::StackConfig sc;
    auto sa = tb.a.make_stack(sc);
    auto sb = tb.b.make_stack(sc);
    std::vector<proto::Message> ma, mb;
    for (const std::uint8_t b : bytes_) {
      const std::vector<std::uint8_t> one{b};
      ma.push_back(proto::Message::from_payload(tb.a.kernel_space, one, 0));
      mb.push_back(proto::Message::from_payload(tb.b.kernel_space, one, 0));
    }

    // The echo server replies with the byte it was sent; the client checks
    // the reply and times the round trip (as harness::ping_pong, whose
    // application send/receive costs it charges the same way).
    std::uint64_t served = 0, done = 0, bad = 0;
    std::vector<double> rtt_us;
    rtt_us.reserve(kTrips);
    sim::Tick send_started = 0;
    const host::MachineConfig& mca = tb.a.cfg.machine;
    const host::MachineConfig& mcb = tb.b.cfg.machine;
    const auto matches = [this](const std::vector<std::uint8_t>& d,
                                std::uint64_t i) {
      return d.size() == 1 && d[0] == bytes_[i % kDistinct];
    };
    sb->set_sink([&](sim::Tick at, atm::Vci v, std::vector<std::uint8_t>&& d) {
      if (!matches(d, served)) ++bad;
      sim::Tick t = tb.b.cpu.exec(at, host::Work{mcb.app_recv, 0});
      t = tb.b.cpu.exec(t, host::Work{mcb.app_send, 0});
      sb->send(t, v, mb[served % kDistinct]);
      ++served;
    });
    sa->set_sink([&](sim::Tick at, atm::Vci v, std::vector<std::uint8_t>&& d) {
      if (!matches(d, done)) ++bad;
      const sim::Tick t = tb.a.cpu.exec(at, host::Work{mca.app_recv, 0});
      rtt_us.push_back(sim::to_us(t - send_started));
      if (++done < kTrips) {
        send_started = t;
        const sim::Tick t2 = tb.a.cpu.exec(t, host::Work{mca.app_send, 0});
        sa->send(t2, v, ma[done % kDistinct]);
      }
    });
    if (traced) {
      tb.group.partition(0).set_step_probe(&pr.step_ns);
      tb.group.partition(1).set_step_probe(&pr.step_ns);
      tb.group.enable_profiling();
    }
    r.setup_s = seconds_since(t0);

    const auto t1 = Clock::now();
    send_started = tb.now();
    sa->send(tb.a.cpu.exec(tb.now(), host::Work{mca.app_send, 0}), vci, ma[0]);
    tb.run();
    r.run_s = seconds_since(t1);

    for (const std::string& v : obs::audit(tb)) r.errors.push_back("audit: " + v);
    check_link_books(r, "a->b", tb.a, tb.b);
    check_link_books(r, "b->a", tb.b, tb.a);
    check_rx_books(r, "a", tb.a, tb.b.txp.pdus_sent());
    check_rx_books(r, "b", tb.b, tb.a.txp.pdus_sent());
    expect_eq(r, "round trips offered vs completed", kTrips, done);
    expect_eq(r, "requests served", served, kTrips);

    r.offered = kTrips;
    r.completed = done;
    r.failed = std::min<std::uint64_t>(bad, kTrips);
    r.events = tb.dispatched();
    const double p50 = median(rtt_us);
    Fnv f;
    fingerprint_node(f, tb.a);
    fingerprint_node(f, tb.b);
    f.add(done);
    for (const double us : rtt_us) f.add(us);
    f.add(tb.now());
    r.fingerprint = f.value();
    r.layers["sim.rtt_us_p50"] = p50;
    r.layers["paper.err_pct"] = err_pct(p50, kPaperRttUs);
    if (traced) {
      const double ops = static_cast<double>(done);
      node_layers(r.layers, {&tb.a, &tb.b},
                  {&tb.group.partition(0), &tb.group.partition(1)}, pr, ops);
      group_layers(r.layers, tb.group, ops);
    }
    std::ostringstream note;
    note << "rpc_small: " << done << "/" << kTrips << " round trips, rtt p50 "
         << p50 << " us (sim), paper " << kPaperRttUs << " us, "
         << tb.group.stats().rounds << " fused rounds";
    r.notes.push_back(note.str());
    return r;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::uint8_t> bytes_;
};

// ---------------------------------------------------------------------------
// chaos_mix: chaos::run_schedule over seeded chaos::generate schedules with
// the default RunnerConfig; each scenario builds its own 3000/600 testbed.
class ChaosMix final : public Workload {
 public:
  static constexpr std::size_t kScenarios = 12;

  explicit ChaosMix(std::uint64_t seed) : seed_(seed) {
    for (std::size_t j = 0; j < kScenarios; ++j) {
      schedules_.push_back(chaos::generate(derive_seed(seed, 40 + j)));
    }
  }

  NodeConfig node_config() const override { return make_3000_600_config(); }
  std::vector<std::vector<std::uint8_t>> pdus() const override {
    // The runner's ARQ, datagram and ADC message sizes.
    const chaos::RunnerConfig rc;
    std::vector<std::vector<std::uint8_t>> out;
    for (const std::uint32_t n : {rc.arq_bytes, rc.dgram_bytes, rc.adc_bytes}) {
      out.push_back(pattern_bytes(derive_seed(seed_, 50 + n), n));
    }
    return out;
  }

  Rep run(bool traced) override {
    Rep r;
    // run_schedule() builds its testbed inside; the set-up time is that of
    // the same bare testbed built here.
    const auto t0 = Clock::now();
    auto tb = std::make_unique<Testbed>(make_3000_600_config(),
                                        make_3000_600_config());
    r.setup_s = seconds_since(t0);
    tb.reset();

    std::vector<chaos::Report> reports;
    const auto t1 = Clock::now();
    for (const chaos::Schedule& s : schedules_) {
      reports.push_back(chaos::run_schedule(s));
    }
    r.run_s = seconds_since(t1);

    std::uint64_t faults = 0, fired = 0, clean = 0, clean_fired = 0;
    std::uint64_t resets = 0, arq_sent = 0, retx = 0, timeouts = 0;
    std::vector<double> recovery;
    Fnv f;
    for (std::size_t j = 0; j < reports.size(); ++j) {
      const chaos::Report& rep = reports[j];
      r.events += rep.events;
      faults += rep.faults_fired;
      fired += rep.faults_fired > 0 ? 1 : 0;
      clean += rep.ok() ? 1 : 0;
      clean_fired += rep.ok() && rep.faults_fired > 0 ? 1 : 0;
      resets += rep.resets_a + rep.resets_b;
      arq_sent += rep.arq_sent;
      retx += rep.arq_retransmissions;
      timeouts += rep.rpc_timeouts;
      recovery.insert(recovery.end(), rep.recovery_us.begin(),
                      rep.recovery_us.end());
      f.add(rep.fingerprint);
      for (const std::string& v : rep.violations) {
        r.errors.push_back("chaos seed " + std::to_string(schedules_[j].seed) +
                           ": " + v);
      }
      std::ostringstream note;
      note << "chaos_mix: seed " << schedules_[j].seed << " "
           << (rep.ok() ? "clean" : "VIOLATED") << " faults_fired="
           << rep.faults_fired << " resets=" << rep.resets_a + rep.resets_b
           << " arq " << rep.arq_delivered << "/" << rep.arq_sent;
      r.notes.push_back(note.str());
    }
    const double n = static_cast<double>(kScenarios);
    std::ostringstream summary;
    summary << "chaos_mix: " << fired << "/" << kScenarios
            << " seeds fired a fault; violation-free " << clean << "/"
            << kScenarios << " over all seeds, " << clean_fired << "/" << fired
            << " over seeds that fired";
    r.notes.push_back(summary.str());

    r.offered = kScenarios;
    r.completed = clean;
    r.failed = kScenarios - clean;
    r.fingerprint = f.value();
    r.layers["chaos.faults_per_scenario"] = static_cast<double>(faults) / n;
    r.layers["chaos.seeds_fired_frac"] = static_cast<double>(fired) / n;
    r.layers["chaos.resets_per_scenario"] = static_cast<double>(resets) / n;
    r.layers["chaos.recovery_us_p99"] = quantile(recovery, 0.99);
    r.layers["chaos.clean_frac_all"] = static_cast<double>(clean) / n;
    r.layers["chaos.clean_frac_fired"] =
        ratio(static_cast<double>(clean_fired), static_cast<double>(fired));
    r.layers["proto.arq_retx_per_msg"] =
        ratio(static_cast<double>(retx), static_cast<double>(arq_sent));
    r.layers["proto.rpc_timeouts"] = static_cast<double>(timeouts);
    r.layers["sim.events_per_op"] = static_cast<double>(r.events) / n;
    (void)traced;  // the runner's testbeds are internal: nothing to attach
    return r;
  }

 private:
  std::uint64_t seed_;
  std::vector<chaos::Schedule> schedules_;
};

template <typename F>
double median_ns(F&& f, int batches = 5) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    f();
    ns.push_back(seconds_since(t0) * 1e9);
  }
  return median(ns);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"rx_bulk", "tx_bulk", "rpc_small",
                                              "chaos_mix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "rx_bulk") return std::make_unique<RxBulk>(seed);
  if (name == "tx_bulk") return std::make_unique<TxBulk>(seed);
  if (name == "rpc_small") return std::make_unique<RpcSmall>(seed);
  if (name == "chaos_mix") return std::make_unique<ChaosMix>(seed);
  return nullptr;
}

void replay_layers(const Workload& w, std::uint64_t seed, Layers& out) {
  const NodeConfig cfg = w.node_config();
  out["osiris.node_build_s"] = median_ns([&] {
                                 sim::Engine eng;
                                 Node n(eng, cfg);
                               }, 3) / 1e9;
  out["mem.phys_build_s"] =
      median_ns([&] { mem::PhysicalMemory pm(cfg.mem_bytes); }, 3) / 1e9;
  out["mem.frames_build_s"] = median_ns([&] {
                                mem::FrameAllocator fa(cfg.mem_bytes,
                                                       cfg.interleave_frames,
                                                       cfg.seed);
                              }, 3) / 1e9;

  // Replays sized to a few milliseconds per batch so the clock resolution
  // does not matter; medians of five batches.
  const auto pdus = w.pdus();
  std::uint64_t cells_per_pass = 0, bytes_per_pass = 0;
  for (const auto& p : pdus) {
    cells_per_pass += atm::cells_for(static_cast<std::uint32_t>(p.size()));
    bytes_per_pass += p.size();
  }
  const std::uint64_t passes =
      std::max<std::uint64_t>(1, 20000 / std::max<std::uint64_t>(1, cells_per_pass));
  const double cells = static_cast<double>(cells_per_pass * passes);
  const atm::Vci vci = static_cast<atm::Vci>(100 + seed % 1000);

  std::vector<atm::Cell> train;
  std::uint64_t sink = 0;
  out["atm.segment_ns_per_cell"] =
      median_ns([&] {
        for (std::uint64_t i = 0; i < passes; ++i) {
          for (const auto& p : pdus) {
            atm::segment_into(p, vci, static_cast<std::uint16_t>(i), train);
            sink += train.size();
          }
        }
      }) / cells;

  std::vector<std::vector<atm::Cell>> trains;
  for (const auto& p : pdus) trains.push_back(atm::segment(p, vci, 0));
  bool reassembled_ok = true;
  out["atm.reassemble_ns_per_cell"] =
      median_ns([&] {
        for (std::uint64_t i = 0; i < passes; ++i) {
          for (std::size_t k = 0; k < trains.size(); ++k) {
            atm::PduAssembler as;
            for (const atm::Cell& c : trains[k]) as.add(c);
            const auto got = as.finish();
            reassembled_ok = reassembled_ok && got && *got == pdus[k];
          }
        }
      }) / cells;
  if (!reassembled_ok) throw std::runtime_error("atm replay: reassembly mismatch");

  const double kb = static_cast<double>(bytes_per_pass * passes) / 1024.0;
  out["atm.checksum_ns_per_kb"] =
      median_ns([&] {
        for (std::uint64_t i = 0; i < passes; ++i) {
          for (const auto& p : pdus) sink += atm::InternetChecksum::of(p);
        }
      }) / kb;
  if (sink == 0) throw std::runtime_error("atm replay: nothing replayed");
}

}  // namespace perfbench
