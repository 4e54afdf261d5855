// Repository benchmark: the perfbench program.
//
//   perfbench --workload <rx_bulk|tx_bulk|rpc_small|chaos_mix> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Repeats the workload's seeded simulation until --seconds of host time
// are used, checks every repetition (payload bytes, conservation, a
// fingerprint equal on every repetition), and prints one metric per line
// followed by a single JSON result line. --trace 0 reports the end-to-end
// metrics from untraced repetitions. --trace 1 spends half the time on
// untraced and half on traced repetitions and reports the per-layer
// metrics; their difference in throughput is trace.overhead_frac.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* domain;  // host time, simulated time, or a count/ratio
};

// End-to-end metrics, measured with tracing off.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "host"},
    {"ops_per_s", "1/s", "host"},
    {"delivered_frac", "ratio", "sim"},
    {"peak_rss_mb", "MB", "host"},
};

// Per-layer metrics, from the traced repetitions. A layer a workload does
// not exercise reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"osiris.node_build_s", "s", "host"},
    {"mem.phys_build_s", "s", "host"},
    {"mem.frames_build_s", "s", "host"},
    {"sim.events_per_op", "count", "sim"},
    {"sim.events_per_s", "1/s", "host"},
    {"sim.step_ns_p50", "ns", "host"},
    {"sim.step_ns_p99", "ns", "host"},
    {"sim.far_frac", "ratio", "sim"},
    {"sim.boxed_events", "count", "sim"},
    {"group.rounds_per_op", "count", "sim"},
    {"group.remote_per_op", "count", "sim"},
    {"group.dispatch_share", "ratio", "host"},
    {"group.barrier_share", "ratio", "host"},
    {"board.rx_cells_per_op", "count", "sim"},
    {"board.rx_nobuf_drops", "count", "sim"},
    {"board.rx_combine_frac", "ratio", "sim"},
    {"board.tx_cells_per_op", "count", "sim"},
    {"board.tx_dma_splits_per_op", "count", "sim"},
    {"tc.dma_per_op", "count", "sim"},
    {"tc.bus_util", "ratio", "sim"},
    {"flow.probes_per_lookup", "count", "sim"},
    {"link.cells_lost", "count", "sim"},
    {"mem.cache_stale_lines_per_op", "count", "sim"},
    {"mem.cache_stale_reads", "count", "sim"},
    {"host.irqs_per_pdu", "count", "sim"},
    {"host.cpu_util", "ratio", "sim"},
    {"host.tx_suspensions", "count", "sim"},
    {"dpram.host_accesses_per_pdu", "count", "sim"},
    {"span.enqueue_to_dpram_us_p50", "us", "sim"},
    {"span.segment_us_p50", "us", "sim"},
    {"span.wire_us_p50", "us", "sim"},
    {"span.reassemble_us_p50", "us", "sim"},
    {"span.rx_dma_us_p50", "us", "sim"},
    {"span.deliver_us_p50", "us", "sim"},
    {"span.e2e_us_p50", "us", "sim"},
    {"span.e2e_us_p99", "us", "sim"},
    {"atm.segment_ns_per_cell", "ns", "host"},
    {"atm.reassemble_ns_per_cell", "ns", "host"},
    {"atm.checksum_ns_per_kb", "ns", "host"},
    {"chaos.faults_per_scenario", "count", "sim"},
    {"chaos.seeds_fired_frac", "ratio", "sim"},
    {"chaos.resets_per_scenario", "count", "sim"},
    {"chaos.recovery_us_p99", "us", "sim"},
    {"chaos.clean_frac_all", "ratio", "sim"},
    {"chaos.clean_frac_fired", "ratio", "sim"},
    {"proto.arq_retx_per_msg", "count", "sim"},
    {"proto.rpc_timeouts", "count", "sim"},
    {"sim.goodput_mbps", "Mbps", "sim"},
    {"sim.rtt_us_p50", "us", "sim"},
    {"paper.err_pct", "%", "sim"},
    {"trace.overhead_frac", "ratio", "host"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      continue;
    }
    if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      const long t = std::strtol(v, &end, 10);
      if (t != 0 && t != 1) return false;
      a.trace = t == 1;
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

/// Repeats the workload until `budget_s` of host time is used, at least
/// `min_reps` times.
std::vector<Rep> repeat(Workload& w, bool traced, double budget_s,
                        std::size_t min_reps) {
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  while (reps.size() < min_reps || seconds_since(t0) < budget_s) {
    reps.push_back(w.run(traced));
  }
  return reps;
}

double ops_per_s(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(static_cast<double>(r.completed) / r.run_s);
  return median(v);
}

void print_metric(const MetricDef& d, double value) {
  std::printf("  %-30s %16.6f %-6s (%s)\n", d.name, value, d.unit, d.domain);
}

int run(const Args& a) {
  auto w = make_workload(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  std::vector<Rep> untraced, traced;
  if (a.trace) {
    untraced = repeat(*w, false, a.seconds / 2, 2);
    traced = repeat(*w, true, a.seconds / 2, 2);
  } else {
    untraced = repeat(*w, false, a.seconds, 3);
  }

  // Every repetition of a seed simulates the same thing: any error, or a
  // fingerprint differing between repetitions (traced or not), fails the run.
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  const std::uint64_t fp = untraced.front().fingerprint;
  for (const auto* set : {&untraced, &traced}) {
    for (const Rep& r : *set) {
      attempted += r.offered;
      failed += r.failed;
      for (const std::string& e : r.errors) errors.push_back(e);
      if (r.fingerprint != fp) errors.push_back("fingerprint differs between repetitions");
    }
  }

  const Rep& first = untraced.front();
  for (const std::string& n : first.notes) std::printf("%s\n", n.c_str());
  std::printf("workload %s seed %" PRIu64 ": %zu untraced + %zu traced repetitions, "
              "fingerprint %016" PRIx64 "\n",
              a.workload.c_str(), a.seed, untraced.size(), traced.size(), fp);

  std::vector<Metric> out;
  if (!a.trace) {
    std::vector<double> setup;
    for (const Rep& r : untraced) setup.push_back(r.setup_s);
    const double values[] = {
        median(setup),
        ops_per_s(untraced),
        static_cast<double>(first.completed) / static_cast<double>(first.offered),
        peak_rss_mb(),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.push_back({kEndToEnd[i].name, values[i], kEndToEnd[i].unit});
      print_metric(kEndToEnd[i], values[i]);
    }
  } else {
    // Medians over the traced repetitions; host-time layer replays; the
    // simulator's event rate from the untraced ones.
    std::map<std::string, std::vector<double>> samples;
    for (const Rep& r : traced) {
      for (const auto& [k, v] : r.layers) samples[k].push_back(v);
    }
    Layers layers;
    for (const auto& [k, v] : samples) layers[k] = median(v);
    replay_layers(*w, a.seed, layers);
    std::vector<double> eps;
    for (const Rep& r : untraced) eps.push_back(static_cast<double>(r.events) / r.run_s);
    layers["sim.events_per_s"] = median(eps);
    layers["trace.overhead_frac"] = ops_per_s(untraced) / ops_per_s(traced) - 1.0;

    std::set<std::string> known;
    for (const MetricDef& d : kLayerMetrics) {
      known.insert(d.name);
      const auto it = layers.find(d.name);
      const double v = it == layers.end() ? 0.0 : it->second;
      out.push_back({d.name, v, d.unit});
      print_metric(d, v);
    }
    for (const auto& [k, v] : layers) {
      if (known.count(k) == 0) errors.push_back("unlisted layer metric " + k);
    }
  }
  for (const Metric& m : out) {
    if (!std::isfinite(m.value)) errors.push_back("non-finite metric " + m.name);
  }

  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty() && failed == 0;
  std::printf("%s\n", result_json(correct, attempted, failed, out).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
