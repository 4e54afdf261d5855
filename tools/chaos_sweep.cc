// Chaos sweep driver: generates and runs N seeded schedules against fresh
// testbeds, and on the first invariant violation shrinks the schedule to a
// minimal action set and writes a replayable artifact.
//
//   $ ./chaos_sweep --seeds 200
//   $ ./chaos_sweep --replay build/chaos_repro.txt
//
// Flags:
//   --seeds N        number of schedules to run (default 25)
//   --base-seed N    first seed (default 1; seeds are base..base+N-1)
//   --repro-out P    artifact path on failure (default chaos_repro.txt)
//   --replay P       run one schedule from an artifact instead of sweeping
//
// Exit status: 0 when every run's invariants held, 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "chaos/shrink.h"
#include "osiris/harness.h"

using namespace osiris;

namespace {

int fail_and_shrink(const chaos::Schedule& sch, const chaos::RunnerConfig& cfg,
                    const chaos::Report& rep, const std::string& repro_out) {
  std::fprintf(stderr, "seed %llu: %zu invariant violation(s):\n",
               static_cast<unsigned long long>(sch.seed),
               rep.violations.size());
  for (const std::string& v : rep.violations) {
    std::fprintf(stderr, "  %s\n", v.c_str());
  }
  std::fprintf(stderr, "shrinking %zu-action schedule...\n",
               sch.actions.size());
  const chaos::ShrinkResult sr = chaos::shrink(sch, cfg);
  std::fprintf(stderr, "minimal schedule: %zu action(s) after %d trial(s)\n",
               sr.minimal.actions.size(), sr.trials);
  if (chaos::write_artifact(repro_out, sr)) {
    std::fprintf(stderr, "replay artifact: %s\n", repro_out.c_str());
  } else {
    std::fprintf(stderr, "could not write artifact to %s\n",
                 repro_out.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string replay = harness::parse_string_flag(argc, argv, "--replay");
  const std::string seeds_s = harness::parse_string_flag(argc, argv, "--seeds");
  const std::string base_s =
      harness::parse_string_flag(argc, argv, "--base-seed");
  std::string repro_out = harness::parse_string_flag(argc, argv, "--repro-out");
  if (repro_out.empty()) repro_out = "chaos_repro.txt";

  const chaos::RunnerConfig cfg;

  if (!replay.empty()) {
    std::ifstream in(replay);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", replay.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto sch = chaos::Schedule::parse(text.str());
    if (!sch) {
      std::fprintf(stderr, "%s is not a chaos schedule\n", replay.c_str());
      return 2;
    }
    chaos::RunnerConfig verbose = cfg;
    verbose.collect_postmortem = true;
    const chaos::Report rep = chaos::run_schedule(*sch, verbose);
    std::printf("replay seed %llu: fingerprint %016llx, %zu violation(s)\n",
                static_cast<unsigned long long>(sch->seed),
                static_cast<unsigned long long>(rep.fingerprint),
                rep.violations.size());
    for (const std::string& v : rep.violations) {
      std::printf("  %s\n", v.c_str());
    }
    std::fputs(rep.postmortem.c_str(), stdout);
    return rep.ok() ? 0 : 1;
  }

  const int seeds = seeds_s.empty() ? 25 : std::atoi(seeds_s.c_str());
  const std::uint64_t base =
      base_s.empty() ? 1 : std::strtoull(base_s.c_str(), nullptr, 10);
  std::uint64_t total_faults = 0, total_resets = 0, total_resyncs = 0;
  for (int i = 0; i < seeds; ++i) {
    const chaos::Schedule sch = chaos::generate(base + static_cast<std::uint64_t>(i));
    const chaos::Report rep = chaos::run_schedule(sch, cfg);
    total_faults += rep.faults_fired;
    total_resets += rep.resets_a + rep.resets_b;
    total_resyncs += rep.arq_resyncs;
    if (!rep.ok()) return fail_and_shrink(sch, cfg, rep, repro_out);
  }
  std::printf(
      "chaos sweep: %d seeds clean (%llu faults fired, "
      "%llu resets, %llu arq resyncs)\n",
      seeds, static_cast<unsigned long long>(total_faults),
      static_cast<unsigned long long>(total_resets),
      static_cast<unsigned long long>(total_resyncs));
  return 0;
}
