// Hardware-platform tests: the same algorithm templates on real threads and
// std::atomic registers, selected from the unified algo::AlgorithmId
// catalogue.  Stress: exactly one winner across many trials for every
// hw-capable algorithm; ops accounting; the combiner's nested fibers inside
// ordinary threads; the shared exec::TrialSummary contract.
#include <gtest/gtest.h>

#include <thread>

#include "hw/harness.hpp"
#include "hw/platform.hpp"

namespace rts::hw {
namespace {

TEST(HwPlatform, RegisterPoolStableAddresses) {
  RegisterPool pool;
  RegisterCell* first = pool.alloc();
  for (int i = 0; i < 1000; ++i) pool.alloc();
  EXPECT_EQ(pool.allocated(), 1001u);
  first->value.store(7);
  EXPECT_EQ(first->value.load(), 7u);
}

TEST(HwPlatform, ContextCountsOps) {
  RegisterPool pool;
  HwPlatform::Arena arena(pool);
  support::PrngSource rng(1);
  HwPlatform::Context ctx(0, rng);
  HwPlatform::Reg reg = arena.reg("r");
  reg.write(ctx, 42);
  EXPECT_EQ(reg.read(ctx), 42u);
  EXPECT_EQ(ctx.ops(), 2u);
}

/// One election with the object sized for its load (n = k), on a
/// one-election pool.
HwRunResult run_once(algo::AlgorithmId id, int k, std::uint64_t seed) {
  HwTrialPool pool(k);
  return pool.run(id, k, seed);
}

class HwAlgorithms : public ::testing::TestWithParam<algo::AlgorithmId> {};

TEST_P(HwAlgorithms, SingleThreadWins) {
  const HwRunResult r = run_once(GetParam(), /*k=*/1, /*seed=*/1);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.winners, 1);
  EXPECT_EQ(r.outcomes[0], sim::Outcome::kWin);
}

TEST_P(HwAlgorithms, ManyThreadsExactlyOneWinner) {
  const int hw_threads =
      std::max(2u, std::thread::hardware_concurrency());
  for (const int k : {2, 4, hw_threads * 2}) {
    HwTrialPool pool(k);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const HwRunResult r = pool.run(GetParam(), k, seed);
      ASSERT_TRUE(r.violations.empty())
          << algo::info(GetParam()).name << " k=" << k << " seed=" << seed
          << ": " << r.violations.front();
      EXPECT_EQ(r.winners, 1);
    }
  }
}

// Every hw-capable algorithm in the catalogue, including the three that
// used to be sim-only in the pre-unification hw enum (ratrace,
// combined-sift, aa) and the hw-only native baseline.
INSTANTIATE_TEST_SUITE_P(
    All, HwAlgorithms,
    ::testing::Values(
        algo::AlgorithmId::kLogStarChain, algo::AlgorithmId::kSiftChain,
        algo::AlgorithmId::kSiftCascade, algo::AlgorithmId::kRatRace,
        algo::AlgorithmId::kRatRacePath, algo::AlgorithmId::kCombinedLogStar,
        algo::AlgorithmId::kCombinedSift, algo::AlgorithmId::kTournament,
        algo::AlgorithmId::kAaSiftRatRace, algo::AlgorithmId::kNativeAtomic),
    [](const auto& info) {
      std::string name = algo::info(info.param).name;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(HwHarness, StressCombinedManyTrials) {
  // The combiner exercises nested fibers inside real threads; hammer it.
  const exec::Aggregate agg = run_hw_many(
      algo::AlgorithmId::kCombinedLogStar, /*k=*/4, /*trials=*/50, 3);
  EXPECT_EQ(agg.runs, 50);
  EXPECT_EQ(agg.violation_runs, 0);
  EXPECT_GT(agg.max_steps.mean(), 0.0);
  EXPECT_GT(agg.wall_seconds.mean(), 0.0);
}

TEST(HwHarness, OpsScaleWithAlgorithm) {
  // The native baseline is 1 op; register-based algorithms cost more.
  HwTrialPool pool(4);
  const HwRunResult native = pool.run(algo::AlgorithmId::kNativeAtomic, 4, 1);
  const HwRunResult logstar = pool.run(algo::AlgorithmId::kLogStarChain, 4, 1);
  std::uint64_t native_max = 0;
  std::uint64_t logstar_max = 0;
  for (const auto ops : native.ops) native_max = std::max(native_max, ops);
  for (const auto ops : logstar.ops) logstar_max = std::max(logstar_max, ops);
  EXPECT_EQ(native_max, 1u);
  EXPECT_GT(logstar_max, 1u);
}

TEST(HwHarness, SummarizeTrialFillsTheSharedContract) {
  const HwRunResult r = run_once(algo::AlgorithmId::kTournament, 4, 9);
  const exec::TrialSummary trial = summarize_trial(r);
  EXPECT_EQ(trial.backend, exec::Backend::kHw);
  EXPECT_EQ(trial.k, 4);
  EXPECT_GT(trial.max_steps, 0u);
  EXPECT_GE(trial.total_steps, trial.max_steps);
  EXPECT_EQ(trial.regs_touched, r.registers);
  EXPECT_EQ(trial.declared_registers, r.declared_registers);
  EXPECT_GT(trial.declared_registers, 0u);
  EXPECT_EQ(trial.unfinished, 0);
  EXPECT_TRUE(trial.crash_free);
  EXPECT_TRUE(trial.completed);
  EXPECT_GE(trial.wall_seconds, 0.0);
  EXPECT_TRUE(trial.first_violation.empty());
}

}  // namespace
}  // namespace rts::hw
