// Chaos orchestration (DESIGN.md §12): schedule serialization and
// generation, the runner's invariant checking, fingerprint stability
// across repeated runs, and delta-debugging shrink + replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "chaos/shrink.h"
#include "fault/fault.h"
#include "sim/time.h"

namespace osiris::chaos {
namespace {

// A quick runner shape for tests: same traffic mix, less of it.
RunnerConfig quick_config() {
  RunnerConfig cfg;
  cfg.horizon = sim::ms(12);
  cfg.arq_msgs = 40;
  cfg.dgram_msgs = 16;
  cfg.rpc_calls = 6;
  cfg.adc_msgs = 10;
  return cfg;
}

// ------------------------------------------------------------ Schedules

TEST(ChaosSchedule, TextRoundTripIsExact) {
  const Schedule s = generate(7);
  ASSERT_FALSE(s.actions.empty());
  const auto back = Schedule::parse(s.to_text());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
}

TEST(ChaosSchedule, ParserIgnoresArtifactPostmortem) {
  const Schedule s = generate(11);
  std::string text = s.to_text();
  text += "\n# ---- postmortem ----\nviolation: something awful\n"
          "arbitrary non-schedule garbage # not even a comment\n";
  const auto back = Schedule::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
}

TEST(ChaosSchedule, ParserRejectsMalformedInput) {
  EXPECT_FALSE(Schedule::parse("").has_value());
  EXPECT_FALSE(Schedule::parse("osiris-chaos-schedule v1\nseed 1\n")
                   .has_value());  // missing end
  EXPECT_FALSE(Schedule::parse("osiris-chaos-schedule v2\nseed 1\nend\n")
                   .has_value());  // wrong version
  EXPECT_FALSE(
      Schedule::parse("osiris-chaos-schedule v1\nseed 1\n"
                      "action node=a point=no_such_point start=0 end=0 p=0 "
                      "after=1 budget=1 wfrom=0 wuntil=0\nend\n")
          .has_value());
}

TEST(ChaosSchedule, GenerationIsDeterministic) {
  const Schedule a = generate(42);
  const Schedule b = generate(42);
  EXPECT_EQ(a, b);
  const Schedule c = generate(43);
  EXPECT_NE(a, c);
  EXPECT_GE(a.actions.size(), 2u);
  EXPECT_LE(a.actions.size(), 6u);
}

TEST(ChaosSchedule, GeneratorHonorsEligiblePoints) {
  GenOptions opt;
  opt.eligible = {fault::Point::kDmaError, fault::Point::kIrqLost};
  opt.min_actions = 4;
  opt.max_actions = 8;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Schedule s = generate(seed, opt);
    for (const Action& a : s.actions) {
      EXPECT_TRUE(a.point == fault::Point::kDmaError ||
                  a.point == fault::Point::kIrqLost)
          << fault::point_name(a.point);
    }
  }
}

// --------------------------------------------------------------- Runner

TEST(ChaosRunner, EmptyScheduleRunsClean) {
  const Report r = run_schedule(Schedule{}, quick_config());
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_EQ(r.arq_delivered, r.arq_sent);
  EXPECT_EQ(r.rpc_completed, r.rpc_issued);
  EXPECT_EQ(r.dgram_delivered, r.dgram_sent);
  EXPECT_EQ(r.resets_a + r.resets_b, 0u);
  EXPECT_EQ(r.faults_fired, 0u);
}

TEST(ChaosRunner, SeedSweepCleanAndFingerprintsMatchAcrossThreads) {
  // Every seed runs clean, and running its schedule a second time on a
  // fresh testbed reproduces the fingerprint exactly. (The name dates from
  // the threaded engine, when the second run used two worker threads.)
  GenOptions gopt;
  gopt.horizon = sim::ms(12);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Schedule s = generate(seed, gopt);
    const Report first = run_schedule(s, quick_config());
    EXPECT_TRUE(first.ok())
        << "seed " << seed << ": "
        << (first.violations.empty() ? "" : first.violations[0]);
    const Report again = run_schedule(s, quick_config());
    EXPECT_TRUE(again.ok()) << "seed " << seed;
    EXPECT_EQ(first.fingerprint, again.fingerprint)
        << "seed " << seed << " diverged between two runs";
  }
}

TEST(ChaosRunner, OverloadFaultsAtTenThousandVcisStayDeterministic) {
  // Buffer exhaustion and tenant bursts against a flow table populated
  // with 10^4 mapped VCIs: recovery must stay violation-free and the
  // fingerprint bit-identical between two runs, proving the table's
  // growth/rehash machinery is deterministic.
  GenOptions gopt;
  gopt.horizon = sim::ms(12);
  gopt.eligible = {fault::Point::kRxBufferExhausted,
                   fault::Point::kTenantBurst};
  RunnerConfig cfg = quick_config();
  cfg.bulk_vcis = 10000;
  for (std::uint64_t seed = 3; seed <= 4; ++seed) {
    const Schedule s = generate(seed, gopt);
    const Report first = run_schedule(s, cfg);
    EXPECT_TRUE(first.ok())
        << "seed " << seed << ": "
        << (first.violations.empty() ? "" : first.violations[0]);
    const Report again = run_schedule(s, cfg);
    EXPECT_TRUE(again.ok()) << "seed " << seed;
    EXPECT_EQ(first.fingerprint, again.fingerprint)
        << "seed " << seed << " diverged between two runs";
  }
}

TEST(ChaosRunner, WatchdogResetConvergesAndRecoveryIsMeasured) {
  // One deterministic transmit-processor wedge on the ARQ sender's board.
  // The watchdog must reset the adaptor, the ARQ session must
  // resynchronize across the reset, and the run must end violation-free
  // with the reset-to-redelivery latency sampled.
  Schedule s;
  Action wedge;
  wedge.node = 0;
  wedge.point = fault::Point::kBoardTxStall;
  wedge.start = sim::ms(2);
  wedge.spec.probability = 0.0;
  wedge.spec.after = 40;
  wedge.spec.budget = 1;
  s.actions.push_back(wedge);

  const Report r = run_schedule(s, quick_config());
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_GE(r.resets_a, 1u);
  EXPECT_GE(r.arq_resyncs, 1u);
  EXPECT_EQ(r.arq_delivered, r.arq_sent);
  ASSERT_FALSE(r.recovery_us.empty());
  for (double us : r.recovery_us) EXPECT_GT(us, 0.0);
}

// -------------------------------------------------------------- Shrinker

// A sender-side wedge is lethal when the retry budget is too small to
// outlast the watchdog rescue.
RunnerConfig fragile_config() {
  RunnerConfig cfg = quick_config();
  cfg.arq_max_retries = 2;
  cfg.arq_rto = sim::us(400);
  cfg.arq_max_rto = sim::ms(1);
  return cfg;
}

Schedule known_bad_schedule() {
  Schedule s;
  s.seed = 999;
  Action wedge;
  wedge.node = 0;
  wedge.point = fault::Point::kBoardTxStall;
  wedge.start = sim::ms(1);
  wedge.spec.probability = 0.0;
  wedge.spec.after = 30;
  wedge.spec.budget = 1;

  Action decoy1;  // benign: a couple of dropped cells, ARQ shrugs it off
  decoy1.node = 1;
  decoy1.point = fault::Point::kBoardRxCellDrop;
  decoy1.start = sim::ms(1);
  decoy1.spec.probability = 0.001;
  decoy1.spec.budget = 2;

  Action decoy2;  // benign: one spurious interrupt
  decoy2.node = 1;
  decoy2.point = fault::Point::kIrqSpurious;
  decoy2.start = sim::ms(2);
  decoy2.spec.probability = 0.0;
  decoy2.spec.after = 5;
  decoy2.spec.budget = 1;

  Action decoy3;  // benign: a lost interrupt the watchdog poll recovers
  decoy3.node = 1;
  decoy3.point = fault::Point::kIrqLost;
  decoy3.start = sim::ms(3);
  decoy3.spec.probability = 0.0;
  decoy3.spec.after = 3;
  decoy3.spec.budget = 1;

  s.actions = {decoy1, wedge, decoy2, decoy3};
  return s;
}

TEST(ChaosShrink, KnownBadScheduleShrinksAndReplaysDeterministically) {
  const Schedule bad = known_bad_schedule();
  const RunnerConfig cfg = fragile_config();

  const Report direct = run_schedule(bad, cfg);
  ASSERT_FALSE(direct.ok()) << "seeded schedule must fail to be shrinkable";

  const ShrinkResult r = shrink(bad, cfg);
  EXPECT_TRUE(r.reproduced);
  EXPECT_GT(r.trials, 0);
  ASSERT_FALSE(r.minimal.actions.empty());
  EXPECT_LE(r.minimal.actions.size(), 3u);
  // The lethal wedge must have survived the shrink.
  EXPECT_TRUE(std::any_of(r.minimal.actions.begin(), r.minimal.actions.end(),
                          [](const Action& a) {
                            return a.point == fault::Point::kBoardTxStall;
                          }));

  // The minimal schedule replays to the same violation and fingerprint.
  const Report again = run_schedule(r.minimal, cfg);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.violations, r.report.violations);
  EXPECT_EQ(again.fingerprint, r.report.fingerprint);
}

TEST(ChaosShrink, ArtifactRoundTripsThroughParser) {
  const Schedule bad = known_bad_schedule();
  const ShrinkResult r = shrink(bad, fragile_config());
  ASSERT_TRUE(r.reproduced);

  const std::string path = "chaos_repro_test_artifact.txt";
  ASSERT_TRUE(write_artifact(path, r));
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  std::remove(path.c_str());
  EXPECT_NE(text.find("postmortem"), std::string::npos);
  const auto back = Schedule::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r.minimal);
}

}  // namespace
}  // namespace osiris::chaos
