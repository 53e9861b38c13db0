// Tests for the unified algorithm/adversary catalogue: name round-trips,
// per-backend capability flags agreeing with what the factories actually
// construct, and the sim-vs-hw smoke asserting both backends report through
// the same exec::TrialSummary contract.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>

#include "algo/registry.hpp"
#include "hw/harness.hpp"
#include "sim/adversaries.hpp"
#include "sim/kernel.hpp"
#include "sim/runner.hpp"
#include "support/assert.hpp"

namespace rts::algo {
namespace {

TEST(Registry, AlgorithmNamesRoundTripAndAreUnique) {
  std::set<std::string> names;
  for (const AlgoInfo& algorithm : all_algorithms()) {
    EXPECT_TRUE(names.insert(algorithm.name).second)
        << "duplicate algorithm name " << algorithm.name;
    const auto parsed = parse_algorithm(algorithm.name);
    ASSERT_TRUE(parsed.has_value()) << algorithm.name;
    EXPECT_EQ(*parsed, algorithm.id);
    EXPECT_STREQ(info(algorithm.id).name, algorithm.name);
  }
  EXPECT_EQ(parse_algorithm("no-such-algorithm"), std::nullopt);
  EXPECT_EQ(parse_algorithm(""), std::nullopt);
}

TEST(Registry, AdversaryNamesRoundTripAndAreUnique) {
  std::set<std::string> names;
  for (const AdversaryInfo& adversary : all_adversaries()) {
    EXPECT_TRUE(names.insert(adversary.name).second)
        << "duplicate adversary name " << adversary.name;
    const auto parsed = parse_adversary(adversary.name);
    ASSERT_TRUE(parsed.has_value()) << adversary.name;
    EXPECT_EQ(*parsed, adversary.id);
    EXPECT_STREQ(info(adversary.id).name, adversary.name);
  }
  EXPECT_EQ(parse_adversary("no-such-adversary"), std::nullopt);
}

TEST(Registry, EveryAlgorithmSupportsSomeBackend) {
  for (const AlgoInfo& algorithm : all_algorithms()) {
    EXPECT_NE(algorithm.backends, 0u) << algorithm.name;
  }
}

TEST(Registry, SimCapabilityFlagsMatchTheSimFactory) {
  for (const AlgoInfo& algorithm : all_algorithms()) {
    sim::Kernel kernel;
    SimPlatform::Arena arena(kernel.memory());
    const auto le = make_sim_le(algorithm.id, arena, 8);
    if (supports(algorithm.id, exec::Backend::kSim)) {
      EXPECT_NE(le, nullptr) << algorithm.name;
      EXPECT_GT(le->declared_registers(), 0u) << algorithm.name;
    } else {
      EXPECT_EQ(le, nullptr) << algorithm.name;
      EXPECT_THROW(sim_builder(algorithm.id), Error) << algorithm.name;
    }
  }
}

TEST(Registry, HwCapabilityFlagsMatchTheHwFactory) {
  for (const AlgoInfo& algorithm : all_algorithms()) {
    if (!supports(algorithm.id, exec::Backend::kHw)) continue;
    // Construction plus an actual 2-thread election: a capability flag only
    // counts if the factory's object really elects on hardware.
    hw::RegisterPool pool;
    hw::HwPlatform::Arena arena(pool);
    const auto le = hw::make_hw_le(algorithm.id, arena, 4);
    EXPECT_NE(le, nullptr) << algorithm.name;
    hw::HwTrialPool elections(2);
    if (algorithm.diagnostic) {
      // Diagnostic entries never elect by design; run them under the
      // watchdog and expect a clean incomplete run instead of a winner.
      hw::HwRunOptions options;
      options.step_limit = 1000;
      const hw::HwRunResult r =
          elections.run(algorithm.id, 2, /*seed=*/11, options);
      EXPECT_FALSE(r.completed) << algorithm.name;
      EXPECT_EQ(r.winners, 0) << algorithm.name;
      EXPECT_TRUE(r.violations.empty()) << algorithm.name;
      continue;
    }
    const hw::HwRunResult r = elections.run(algorithm.id, 2, /*seed=*/11);
    EXPECT_TRUE(r.violations.empty()) << algorithm.name;
    EXPECT_EQ(r.winners, 1) << algorithm.name;
  }
}

TEST(Registry, NativeAtomicIsHwOnly) {
  EXPECT_FALSE(supports(AlgorithmId::kNativeAtomic, exec::Backend::kSim));
  EXPECT_TRUE(supports(AlgorithmId::kNativeAtomic, exec::Backend::kHw));
}

TEST(Registry, AdversaryFactoriesConstructAndCrashFlagIsHonest) {
  for (const AdversaryInfo& adversary : all_adversaries()) {
    if (adversary.from_trace) {
      // Trace-backed schedulers have no seeded factory by design; they are
      // constructed from recorded CellTraces (sim::ReplayAdversary).
      EXPECT_THROW(adversary_factory(adversary.id), Error) << adversary.name;
      continue;
    }
    const auto factory = adversary_factory(adversary.id);
    ASSERT_NE(factory, nullptr) << adversary.name;
    EXPECT_NE(factory(1), nullptr) << adversary.name;
    EXPECT_EQ(adversary.crashes, adversary.id == AdversaryId::kCrashAfterOps)
        << adversary.name;
  }
}

TEST(Registry, CrashAfterOpsExercisesTheCrashPaths) {
  const sim::LeAggregate agg = sim::run_le_many(
      sim_builder(AlgorithmId::kTournament), /*n=*/8, /*k=*/8,
      adversary_factory(AdversaryId::kCrashAfterOps), /*trials=*/20,
      /*seed0=*/5);
  EXPECT_EQ(agg.runs, 20);
  // Crashes must never manufacture a safety/liveness violation...
  EXPECT_EQ(agg.violation_runs, 0);
  // ...but with 8 processes on a 4..24-op budget they must actually happen,
  // and crashed processes must surface as unfinished participants.
  EXPECT_GT(agg.crashed_runs, 0);
  EXPECT_GT(agg.unfinished.max(), 0.0);
}

TEST(Registry, SimAndHwTrialsShareOneSummaryShape) {
  static_assert(std::is_same_v<sim::LeTrialSummary, exec::TrialSummary>,
                "sim trials must summarize into the shared contract");

  const sim::LeTrialSummary sim_trial = sim::summarize_trial(sim::run_le_trial(
      sim_builder(AlgorithmId::kTournament), /*n=*/4, /*k=*/4,
      adversary_factory(AdversaryId::kUniformRandom), /*trial=*/0,
      /*seed0=*/3));
  hw::HwTrialPool elections(/*k=*/4);
  const exec::TrialSummary hw_trial = hw::summarize_trial(
      elections.run_trial(AlgorithmId::kTournament, /*n=*/4, /*trial=*/0,
                          /*seed0=*/3));

  EXPECT_EQ(sim_trial.backend, exec::Backend::kSim);
  EXPECT_EQ(hw_trial.backend, exec::Backend::kHw);
  for (const exec::TrialSummary* trial : {&sim_trial, &hw_trial}) {
    EXPECT_EQ(trial->k, 4);
    EXPECT_GT(trial->max_steps, 0u);
    EXPECT_GE(trial->total_steps, trial->max_steps);
    EXPECT_GT(trial->declared_registers, 0u);
    EXPECT_EQ(trial->unfinished, 0);
    EXPECT_TRUE(trial->crash_free);
    EXPECT_TRUE(trial->completed);
    EXPECT_TRUE(trial->first_violation.empty());
  }
  // Same fold accepts both.
  exec::Aggregate agg;
  exec::accumulate_trial(agg, sim_trial);
  exec::accumulate_trial(agg, hw_trial);
  EXPECT_EQ(agg.runs, 2);
  EXPECT_EQ(agg.violation_runs, 0);
}

}  // namespace
}  // namespace rts::algo
