#include "osiris/stats.h"

#include <functional>
#include <sstream>
#include <utility>

namespace osiris {

NodeStats snapshot(Node& n) {
  NodeStats s;
  s.machine = n.cfg.machine.name;

  s.pdus_sent = n.txp.pdus_sent();
  s.cells_sent = n.txp.cells_sent();
  s.tx_dma_ops = n.txp.dma_ops();
  s.tx_dma_splits = n.txp.dma_splits();
  s.tx_suspensions = n.driver.tx_suspensions();
  s.tx_auth_violations = n.txp.auth_violations();

  s.cells_received = n.rxp.cells_received();
  s.cells_generated = n.rxp.cells_generated();
  s.cells_bad_header = n.rxp.cells_bad_header();
  s.cells_fifo_dropped = n.rxp.cells_fifo_dropped();
  s.rx_dma_ops = n.rxp.dma_ops();
  s.combine_fraction = n.rxp.combine_fraction();
  s.pdus_completed = n.rxp.pdus_completed();
  s.pdus_dropped_nobuf = n.rxp.pdus_dropped_nobuf();
  s.pdus_dropped_recvfull = n.rxp.pdus_dropped_recvfull();
  s.rx_auth_violations = n.rxp.auth_violations();

  s.pdus_dropped_quota = n.rxp.pdus_dropped_quota();
  s.pdus_evicted = n.rxp.pdus_evicted();
  s.backpressure_irqs = n.rxp.backpressure_irqs();
  s.rate_deferrals = n.txp.rate_deferrals();
  s.wedge_skips = n.txp.wedge_skips();
  s.quarantine_drops = n.rxp.quarantine_drops();
  s.dead_channel_drops = n.rxp.dead_channel_drops();

  s.interrupts = n.intc.raised();
  s.driver_pdus_received = n.driver.pdus_received();
  s.stale_partial_pdus = n.driver.stale_partial_pdus();
  s.wired_frames = n.driver.wiring().wired_frames();
  s.bus_utilization = n.bus.bus().utilization();
  s.cpu_utilization = n.cpu.resource().utilization();
  s.dpram_host_accesses = n.ram.host_accesses();
  s.dpram_board_accesses = n.ram.board_accesses();
  s.cache_stale_reads = n.cache.stale_reads();
  s.cache_dma_stale_lines = n.cache.dma_stale_lines();

  s.board_stalls = n.txp.stalls() + n.rxp.stalls();
  s.cells_sar_dropped = n.rxp.cells_sar_dropped();
  s.dma_errors = n.txp.dma_errors() + n.rxp.dma_errors();
  s.bad_chains = n.txp.bad_chains();
  s.bad_descriptors = n.driver.bad_descriptors();
  s.dpram_stale_reads = n.ram.stale_reads();
  s.dpram_corrupted_words = n.ram.corrupted_words();
  s.irqs_lost = n.intc.lost();
  s.spurious_irqs = n.driver.spurious_irqs();
  s.watchdog_polls = n.driver.watchdog_polls();
  s.watchdog_resets = n.driver.watchdog_resets();
  s.generation = n.driver.generation();
  return s;
}

std::string format_stats(const NodeStats& s) {
  std::ostringstream os;
  os << s.machine << "\n";
  os << "  tx: " << s.pdus_sent << " PDUs, " << s.cells_sent << " cells, "
     << s.tx_dma_ops << " DMA reads (" << s.tx_dma_splits
     << " boundary splits), " << s.tx_suspensions << " queue-full suspensions\n";
  os << "  rx: " << s.cells_received << " cells in, " << s.pdus_completed
     << " PDUs reassembled via " << s.rx_dma_ops << " DMA writes ("
     << static_cast<int>(s.combine_fraction * 100) << "% double-cell)\n";
  if (s.cells_bad_header + s.cells_fifo_dropped + s.pdus_dropped_nobuf +
          s.pdus_dropped_recvfull >
      0) {
    os << "  drops: " << s.cells_bad_header << " bad-header cells, "
       << s.cells_fifo_dropped << " fifo cells, " << s.pdus_dropped_nobuf
       << " PDUs (no buffer), " << s.pdus_dropped_recvfull
       << " PDUs (recv queue full)\n";
  }
  os << "  host: " << s.interrupts << " interrupts ("
     << s.interrupts_per_pdu() << "/PDU), " << s.driver_pdus_received
     << " PDUs delivered, " << s.dpram_host_accesses
     << " dual-port RAM accesses (" << s.host_accesses_per_pdu()
     << "/PDU)\n";
  os << "  bus util " << s.bus_utilization << ", cpu util "
     << s.cpu_utilization << ", wired frames " << s.wired_frames << "\n";
  if (s.cache_dma_stale_lines > 0) {
    os << "  cache: " << s.cache_dma_stale_lines << " lines made stale by DMA, "
       << s.cache_stale_reads << " stale reads observed\n";
  }
  if (s.pdus_dropped_quota + s.pdus_evicted + s.backpressure_irqs +
          s.rate_deferrals + s.wedge_skips + s.quarantine_drops +
          s.dead_channel_drops >
      0) {
    os << "  qos: " << s.pdus_dropped_quota << " quota drops, "
       << s.pdus_evicted << " evictions, " << s.backpressure_irqs
       << " backpressure irqs, " << s.rate_deferrals << " rate deferrals, "
       << s.wedge_skips << " wedge skips, " << s.quarantine_drops
       << " quarantine drops, " << s.dead_channel_drops
       << " dead-channel drops\n";
  }
  if (s.board_stalls + s.cells_sar_dropped + s.dma_errors + s.bad_chains +
          s.bad_descriptors + s.dpram_stale_reads + s.dpram_corrupted_words +
          s.irqs_lost + s.spurious_irqs + s.watchdog_polls +
          s.watchdog_resets >
      0) {
    os << "  faults: " << s.board_stalls << " stalls, " << s.cells_sar_dropped
       << " SAR drops, " << s.dma_errors << " DMA errors, " << s.bad_chains
       << " bad chains, " << s.bad_descriptors << " bad descriptors, "
       << s.dpram_corrupted_words << " corrupted words, "
       << s.dpram_stale_reads << " stale RAM reads, " << s.irqs_lost
       << " lost irqs, " << s.spurious_irqs << " spurious irqs\n";
    os << "  recovery: " << s.watchdog_polls << " watchdog polls, "
       << s.watchdog_resets << " adaptor resets (generation " << s.generation
       << ")\n";
  }
  return os.str();
}

void register_metrics(obs::Registry& r, Node& n, const std::string& prefix) {
  Node* np = &n;
  // Pull-model gauges: each reads the live counter at snapshot() time, so
  // registration happens once and the hot paths are untouched.
  auto add = [&r, &prefix](const char* name, std::function<std::uint64_t()> f) {
    r.gauge(prefix + name,
            [f = std::move(f)] { return static_cast<double>(f()); });
  };

  add("tx.pdus_sent", [np] { return np->txp.pdus_sent(); });
  add("tx.cells_sent", [np] { return np->txp.cells_sent(); });
  add("tx.dma_ops", [np] { return np->txp.dma_ops(); });
  add("tx.dma_splits", [np] { return np->txp.dma_splits(); });
  add("tx.suspensions", [np] { return np->driver.tx_suspensions(); });
  add("tx.auth_violations", [np] { return np->txp.auth_violations(); });

  add("rx.cells_received", [np] { return np->rxp.cells_received(); });
  add("rx.cells_generated", [np] { return np->rxp.cells_generated(); });
  add("rx.cells_bad_header", [np] { return np->rxp.cells_bad_header(); });
  add("rx.cells_fifo_dropped", [np] { return np->rxp.cells_fifo_dropped(); });
  add("rx.dma_ops", [np] { return np->rxp.dma_ops(); });
  add("rx.pdus_completed", [np] { return np->rxp.pdus_completed(); });
  add("rx.pdus_dropped_nobuf", [np] { return np->rxp.pdus_dropped_nobuf(); });
  add("rx.pdus_dropped_recvfull",
      [np] { return np->rxp.pdus_dropped_recvfull(); });
  add("rx.auth_violations", [np] { return np->rxp.auth_violations(); });

  add("qos.pdus_dropped_quota", [np] { return np->rxp.pdus_dropped_quota(); });
  add("qos.pdus_evicted", [np] { return np->rxp.pdus_evicted(); });
  add("qos.backpressure_irqs", [np] { return np->rxp.backpressure_irqs(); });
  add("qos.rate_deferrals", [np] { return np->txp.rate_deferrals(); });
  add("qos.wedge_skips", [np] { return np->txp.wedge_skips(); });
  add("qos.quarantine_drops", [np] { return np->rxp.quarantine_drops(); });
  add("qos.dead_channel_drops", [np] { return np->rxp.dead_channel_drops(); });

  // Early-demultiplexing flow table (per-VCI state on the Rx fast path).
  add("flow.occupancy", [np] { return np->rxp.flow_occupancy(); });
  add("flow.capacity", [np] { return np->rxp.flow_capacity(); });
  add("flow.lookups", [np] { return np->rxp.flow_stats().lookups; });
  add("flow.probed_buckets",
      [np] { return np->rxp.flow_stats().probed_buckets; });
  add("flow.max_probe", [np] { return np->rxp.flow_stats().max_probe; });
  add("flow.rehashes", [np] { return np->rxp.flow_stats().rehashes; });
  add("flow.migrated_buckets",
      [np] { return np->rxp.flow_stats().migrated_buckets; });
  add("flow.overflow_peak",
      [np] { return np->rxp.flow_stats().overflow_peak; });

  add("host.interrupts", [np] { return np->intc.raised(); });
  add("host.pdus_received", [np] { return np->driver.pdus_received(); });
  add("host.stale_partial_pdus",
      [np] { return np->driver.stale_partial_pdus(); });
  add("host.wired_frames", [np] { return np->driver.wiring().wired_frames(); });
  add("host.dpram_host_accesses", [np] { return np->ram.host_accesses(); });
  add("host.dpram_board_accesses", [np] { return np->ram.board_accesses(); });
  add("host.cache_stale_reads", [np] { return np->cache.stale_reads(); });

  add("fault.board_stalls", [np] { return np->txp.stalls() + np->rxp.stalls(); });
  add("fault.cells_sar_dropped", [np] { return np->rxp.cells_sar_dropped(); });
  add("fault.dma_errors",
      [np] { return np->txp.dma_errors() + np->rxp.dma_errors(); });
  add("fault.bad_chains", [np] { return np->txp.bad_chains(); });
  add("fault.bad_descriptors", [np] { return np->driver.bad_descriptors(); });
  add("fault.dpram_stale_reads", [np] { return np->ram.stale_reads(); });
  add("fault.dpram_corrupted_words",
      [np] { return np->ram.corrupted_words(); });
  add("fault.irqs_lost", [np] { return np->intc.lost(); });
  add("fault.spurious_irqs", [np] { return np->driver.spurious_irqs(); });
  add("fault.watchdog_polls", [np] { return np->driver.watchdog_polls(); });
  add("fault.watchdog_resets", [np] { return np->driver.watchdog_resets(); });
  add("fault.generation", [np] { return np->driver.generation(); });
  add("fault.crc_failures", [np] { return np->driver.crc_failures(); });
  add("fault.resyncs_observed",
      [np] { return np->driver.resyncs_observed(); });

  r.gauge(prefix + "host.bus_utilization",
          [np] { return np->bus.bus().utilization(); });
  r.gauge(prefix + "host.cpu_utilization",
          [np] { return np->cpu.resource().utilization(); });
  r.gauge(prefix + "rx.combine_fraction",
          [np] { return np->rxp.combine_fraction(); });

  // Per-point fault-plane activity. The lifetime cells are stable
  // addresses that survive arm()/disarm() cycles, so a chaos schedule's
  // full activity shows up in --stats-json and the trend dashboard
  // without parsing FaultPlane::summary() text.
  if (n.cfg.faults != nullptr) {
    const fault::FaultPlane* fp = n.cfg.faults;
    for (int i = 0; i < static_cast<int>(fault::Point::kCount); ++i) {
      const auto p = static_cast<fault::Point>(i);
      const std::string base = prefix + "fault.point." + fault::point_name(p);
      r.counter(base + ".consulted", fp->lifetime_consulted_cell(p));
      r.counter(base + ".fired", fp->lifetime_fired_cell(p));
    }
  }
}

}  // namespace osiris
