// Chaos-scenario throughput and recovery latency (DESIGN.md §12).
//
// Runs a fixed block of generated chaos schedules — the same seeds every
// time — through the full ChaosRunner (two nodes, mixed ARQ/datagram/
// RPC/ADC traffic, QoS knobs, watchdogs, invariant audit) and reports:
//
//   scenarios_per_sec        wall-clock scenario throughput
//   recovery_latency_us_p99  p99 of force_reset -> next in-order ARQ
//                            delivery, over every reset the block hit
//   violation_free_fraction  fraction of scenarios with zero invariant
//                            violations (CI floors this at 1.0 — a chaos
//                            regression fails the trend gate, not just
//                            the nightly sweep)
//
// Results go to stdout and BENCH_chaos.json for tools/bench_trend.py.
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"

namespace {

using namespace osiris;

constexpr std::uint64_t kSeeds = 12;
constexpr std::uint64_t kBaseSeed = 1;

}  // namespace

int main() {
  benchjson::WallTimer wall;
  benchjson::Writer json;
  json.open_object();

  std::uint64_t events = 0, clean = 0, faults = 0, resets = 0;
  std::vector<double> recovery_us;
  json.open_array("rows");
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    const chaos::Schedule s = chaos::generate(kBaseSeed + i);
    const chaos::Report r = chaos::run_schedule(s);
    events += r.events;
    faults += r.faults_fired;
    resets += r.resets_a + r.resets_b;
    if (r.ok()) ++clean;
    recovery_us.insert(recovery_us.end(), r.recovery_us.begin(),
                       r.recovery_us.end());
    json.open_object();
    json.field("seed", kBaseSeed + i);
    json.field("ok", r.ok());
    json.field("faults_fired", r.faults_fired);
    json.field("resets", r.resets_a + r.resets_b);
    json.field("arq_resyncs", r.arq_resyncs);
    json.close_object();
    std::printf("  seed %2llu: %s  faults=%llu resets=%llu resyncs=%llu\n",
                static_cast<unsigned long long>(kBaseSeed + i),
                r.ok() ? "clean " : "VIOLATED",
                static_cast<unsigned long long>(r.faults_fired),
                static_cast<unsigned long long>(r.resets_a + r.resets_b),
                static_cast<unsigned long long>(r.arq_resyncs));
  }
  json.close_array();

  const double secs = wall.seconds();
  const double scenarios_per_sec =
      secs > 0 ? static_cast<double>(kSeeds) / secs : 0.0;
  const double p99 = benchjson::quantile(recovery_us, 0.99);
  const double violation_free =
      static_cast<double>(clean) / static_cast<double>(kSeeds);

  json.field("scenarios", kSeeds);
  json.field("scenarios_per_sec", scenarios_per_sec);
  json.field("recovery_latency_us_p99", p99);
  json.field("recovery_samples", static_cast<std::uint64_t>(recovery_us.size()));
  json.field("violation_free_fraction", violation_free);
  json.field("faults_fired", faults);
  json.field("adaptor_resets", resets);
  benchjson::perf_fields(json, secs, events);
  json.close_object();

  std::printf("\n  %llu scenarios in %.2fs (%.1f/s), %llu faults, %llu"
              " resets, recovery p99 %.1f us, violation-free %.2f\n\n",
              static_cast<unsigned long long>(kSeeds), secs, scenarios_per_sec,
              static_cast<unsigned long long>(faults),
              static_cast<unsigned long long>(resets), p99, violation_free);
  json.dump("chaos");
  return violation_free == 1.0 ? 0 : 1;
}
