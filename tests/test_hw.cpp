// Hardware-platform tests: the same algorithm templates on real threads and
// std::atomic registers, selected from the unified algo::AlgorithmId
// catalogue.  Stress: exactly one winner across many trials for every
// hw-capable algorithm; ops accounting; the combiner's nested fibers inside
// ordinary threads; the shared exec::TrialSummary contract; the pool's
// hand-off across back-to-back elections and its lazily spawned watchdog.
#include <gtest/gtest.h>

#include <chrono>
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

TEST(HwTrialPool, BackToBackElectionsHandOffCleanly) {
  // 20,000 elections per pool through the hand-off: each elects exactly one
  // winner, trials_run() counts each, and the participant-stamped wall time
  // lies inside the caller's own timing of run().
  constexpr int kElections = 20'000;
  using Clock = std::chrono::steady_clock;
  for (const algo::AlgorithmId id :
       {algo::AlgorithmId::kTournament, algo::AlgorithmId::kNativeAtomic}) {
    for (const int k : {1, 2, 3, 8}) {
      HwTrialPool pool(k);
      for (int e = 0; e < kElections; ++e) {
        const Clock::time_point before = Clock::now();
        const HwRunResult r =
            pool.run(id, k, static_cast<std::uint64_t>(e));
        const double outer =
            std::chrono::duration<double>(Clock::now() - before).count();
        ASSERT_EQ(r.winners, 1) << algo::info(id).name << " k=" << k
                                << " election " << e;
        ASSERT_TRUE(r.violations.empty());
        ASSERT_GT(r.wall_seconds, 0.0);
        ASSERT_LE(r.wall_seconds, outer);
      }
      EXPECT_EQ(pool.trials_run(), static_cast<std::uint64_t>(kElections));
    }
  }
}

TEST(HwTrialPool, ArmedElectionAfterUnarmedOnesTimesOut) {
  // Unarmed elections never start the watchdog; the first armed one does,
  // and must still be cancelled at its deadline.  Every participant sleeps
  // 50ms before its first shared op against a 0.2ms deadline.
  const auto plan = fault::FaultPlan::parse("delay:p=1,us=50000", nullptr);
  ASSERT_TRUE(plan.has_value());
  HwTrialPool pool(2);
  for (std::uint64_t seed = 0; seed < 1'000; ++seed) {
    ASSERT_EQ(pool.run(algo::AlgorithmId::kTournament, 2, seed).winners, 1);
  }
  HwRunOptions armed;
  armed.deadline_ns = 200'000;
  armed.plan = &*plan;
  const HwRunResult cancelled =
      pool.run(algo::AlgorithmId::kTournament, 2, 1'000, armed);
  EXPECT_TRUE(cancelled.timed_out);
  EXPECT_FALSE(cancelled.completed);
  const HwRunResult after = pool.run(algo::AlgorithmId::kTournament, 2, 1'001);
  EXPECT_TRUE(after.completed);
  EXPECT_EQ(after.winners, 1);
  EXPECT_TRUE(after.violations.empty());
}

}  // namespace
}  // namespace rts::hw
