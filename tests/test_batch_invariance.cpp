// Batched-vs-scalar invariance: the load-bearing contract of the batch
// engine (sim/batch.hpp + algo/batch.cpp) is that for every *eligible*
// (algorithm, adversary) cell it reproduces the scalar trial path's
// exec::TrialSummary byte for byte, trial for trial -- the same discipline
// that keeps fresh and pooled kernels interchangeable.  These tests
// byte-compare the checkpoint codec serialization of both paths across the
// eligible catalogue (including crashing schedules and step-limit-starved
// lanes), check that ineligible pairs refuse a stream, and property-test
// the SoA bank reset.  The runnable set the engine shares with the scalar
// kernel is tested in tests/test_runnable_set.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/batch.hpp"
#include "algo/registry.hpp"
#include "campaign/executor.hpp"
#include "campaign/reporter.hpp"
#include "campaign/spec.hpp"
#include "exec/backend.hpp"
#include "exec/workspace.hpp"
#include "rmr/model.hpp"
#include "sim/batch.hpp"
#include "sim/runner.hpp"

namespace rts {
namespace {

constexpr std::uint64_t kSeed0 = 0xba7c4ed5eedULL;

std::string summary_bytes(const exec::TrialSummary& summary) {
  std::string out;
  exec::append_trial_summary(out, summary);
  return out;
}

/// Scalar reference: trials [0, trials) through a pooled workspace, exactly
/// the campaign executor's sim path.
std::vector<exec::TrialSummary> scalar_summaries(
    algo::AlgorithmId algorithm, algo::AdversaryId adversary, int n, int k,
    int trials, sim::Kernel::Options options) {
  exec::TrialWorkspace workspace;
  const sim::LeBuilder builder = algo::sim_builder(algorithm);
  const sim::AdversaryFactory factory = algo::adversary_factory(adversary);
  std::vector<exec::TrialSummary> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int trial = 0; trial < trials; ++trial) {
    out.push_back(sim::summarize_trial(workspace.run_le_trial(
        /*key=*/0, builder, n, k, factory, trial, kSeed0, options)));
  }
  return out;
}

std::vector<exec::TrialSummary> batch_summaries(algo::AlgorithmId algorithm,
                                                algo::AdversaryId adversary,
                                                int n, int k, int trials,
                                                int lanes,
                                                std::uint64_t step_limit) {
  auto stream = algo::make_batch_stream(algorithm, adversary, n, k, lanes,
                                        kSeed0, step_limit);
  EXPECT_NE(stream, nullptr);
  std::vector<exec::TrialSummary> out(static_cast<std::size_t>(trials));
  for (int first = 0; first < trials; first += lanes) {
    const int count = std::min(lanes, trials - first);
    stream->run_block(first, count, out.data() + first);
  }
  return out;
}

std::vector<algo::AlgorithmId> eligible_algorithms() {
  std::vector<algo::AlgorithmId> out;
  for (const algo::AlgoInfo& info : algo::all_algorithms()) {
    if (algo::batch_supported(info.id)) out.push_back(info.id);
  }
  return out;
}

std::vector<algo::AdversaryId> eligible_adversaries() {
  std::vector<algo::AdversaryId> out;
  for (const algo::AdversaryInfo& info : algo::all_adversaries()) {
    if (algo::batch_sched(info.id).has_value()) out.push_back(info.id);
  }
  return out;
}

void expect_bitwise_identical(algo::AlgorithmId algorithm,
                              algo::AdversaryId adversary, int n, int k,
                              int trials, int lanes,
                              std::uint64_t step_limit) {
  sim::Kernel::Options options;
  options.step_limit = step_limit;
  const auto scalar =
      scalar_summaries(algorithm, adversary, n, k, trials, options);
  const auto batched = batch_summaries(algorithm, adversary, n, k, trials,
                                       lanes, step_limit);
  ASSERT_EQ(scalar.size(), batched.size());
  const std::string label = std::string(algo::info(algorithm).name) + " x " +
                            algo::info(adversary).name +
                            " k=" + std::to_string(k) +
                            " lanes=" + std::to_string(lanes);
  for (std::size_t trial = 0; trial < scalar.size(); ++trial) {
    ASSERT_EQ(summary_bytes(scalar[trial]), summary_bytes(batched[trial]))
        << label << " trial " << trial;
  }
}

TEST(BatchInvariance, EligibleCatalogueIsEnumeratedAsExpected) {
  // The eligibility sets are part of the contract: silently dropping an
  // algorithm or adversary from the batch path would weaken every grid
  // below without failing it.
  EXPECT_EQ(eligible_algorithms().size(), 6u);
  EXPECT_EQ(eligible_adversaries().size(), 4u);
}

TEST(BatchInvariance, BatchedMatchesScalarAcrossEligibleCatalogue) {
  constexpr int kTrials = 10;  // 10 = 8 + 2: exercises a partial last block
  constexpr int kLanes = 8;
  for (const algo::AlgorithmId algorithm : eligible_algorithms()) {
    for (const algo::AdversaryId adversary : eligible_adversaries()) {
      for (const int k : {2, 8, 33}) {
        expect_bitwise_identical(algorithm, adversary, /*n=*/k, k, kTrials,
                                 kLanes, /*step_limit=*/10'000'000);
      }
    }
  }
}

TEST(BatchInvariance, LaneCountNeverChangesResults) {
  // Batching is a throughput knob, not a semantic one: lanes=1 and
  // lanes=64 must produce the bytes lanes=8 produced above.
  constexpr int kTrials = 9;
  sim::Kernel::Options options;
  for (const algo::AlgorithmId algorithm :
       {algo::AlgorithmId::kLogStarChain, algo::AlgorithmId::kCombinedSift}) {
    const auto scalar =
        scalar_summaries(algorithm, algo::AdversaryId::kUniformRandom,
                         /*n=*/16, /*k=*/16, kTrials, options);
    for (const int lanes : {1, 3, 64}) {
      const auto batched = batch_summaries(
          algorithm, algo::AdversaryId::kUniformRandom, /*n=*/16, /*k=*/16,
          kTrials, lanes, options.step_limit);
      for (std::size_t trial = 0; trial < scalar.size(); ++trial) {
        ASSERT_EQ(summary_bytes(scalar[trial]), summary_bytes(batched[trial]))
            << "lanes=" << lanes << " trial " << trial;
      }
    }
  }
}

TEST(BatchInvariance, WideCellsCrossTheRunnableWordBoundary) {
  // k > 64 exercises the multi-word membership bitmap of the lane's
  // runnable set; crash cells retire pids from the middle of both words.
  for (const algo::AdversaryId adversary :
       {algo::AdversaryId::kUniformRandom, algo::AdversaryId::kCrashAfterOps,
        algo::AdversaryId::kRoundRobin}) {
    expect_bitwise_identical(algo::AlgorithmId::kLogStarChain, adversary,
                             /*n=*/80, /*k=*/80, /*trials=*/6, /*lanes=*/4,
                             /*step_limit=*/10'000'000);
  }
}

TEST(BatchInvariance, StarvedLanesRetireEarlyAndIdentically) {
  // A tiny step limit starves most trials (completed=false, unfinished>0);
  // retired lanes must fold into exactly the scalar path's starved
  // summaries, and their early exit must not disturb sibling lanes.
  for (const algo::AlgorithmId algorithm :
       {algo::AlgorithmId::kLogStarChain, algo::AlgorithmId::kSiftCascade,
        algo::AlgorithmId::kRatRacePath}) {
    for (const algo::AdversaryId adversary :
         {algo::AdversaryId::kUniformRandom,
          algo::AdversaryId::kCrashAfterOps}) {
      expect_bitwise_identical(algorithm, adversary, /*n=*/8, /*k=*/8,
                               /*trials=*/12, /*lanes=*/8,
                               /*step_limit=*/40);
    }
  }
}

TEST(BatchInvariance, IneligiblePairsRefuseAStream) {
  // Adversaries whose schedules are not a pure function of (seed,
  // runnable, steps) -- and algorithms without a machine -- must return
  // nullptr so callers fall back to the scalar kernel.
  for (const algo::AdversaryId adversary :
       {algo::AdversaryId::kAbortAfterOps, algo::AdversaryId::kGeNeutralizer,
        algo::AdversaryId::kReplay}) {
    EXPECT_FALSE(algo::batch_sched(adversary).has_value());
    EXPECT_EQ(algo::make_batch_stream(algo::AlgorithmId::kLogStarChain,
                                      adversary, 8, 8, 8, kSeed0,
                                      10'000'000),
              nullptr);
  }
  for (const algo::AlgorithmId algorithm :
       {algo::AlgorithmId::kRatRace, algo::AlgorithmId::kTournament,
        algo::AlgorithmId::kAaSiftRatRace, algo::AlgorithmId::kAbortableRace,
        algo::AlgorithmId::kNativeAtomic}) {
    EXPECT_FALSE(algo::batch_supported(algorithm));
    EXPECT_EQ(algo::make_batch_stream(algorithm,
                                      algo::AdversaryId::kUniformRandom, 8, 8,
                                      8, kSeed0, 10'000'000),
              nullptr);
  }
}

TEST(BatchInvariance, BlocksAreAPureFunctionOfTheirTrialRange) {
  // Work-stealing executors may run blocks out of order and recompute a
  // block after others have dirtied the bank: byte-identical either way.
  auto stream = algo::make_batch_stream(
      algo::AlgorithmId::kSiftChain, algo::AdversaryId::kCrashAfterOps,
      /*n=*/16, /*k=*/16, /*lanes=*/8, kSeed0, /*step_limit=*/10'000'000);
  ASSERT_NE(stream, nullptr);
  std::vector<exec::TrialSummary> forward(16);
  stream->run_block(0, 8, forward.data());
  stream->run_block(8, 8, forward.data() + 8);
  // Reversed order, through the same (now dirty) stream object.
  std::vector<exec::TrialSummary> reversed(16);
  stream->run_block(8, 8, reversed.data() + 8);
  stream->run_block(0, 8, reversed.data());
  // Partial blocks over the same trials, fresh stream.
  auto fresh = algo::make_batch_stream(
      algo::AlgorithmId::kSiftChain, algo::AdversaryId::kCrashAfterOps,
      /*n=*/16, /*k=*/16, /*lanes=*/8, kSeed0, /*step_limit=*/10'000'000);
  std::vector<exec::TrialSummary> partial(16);
  for (int first = 0; first < 16; first += 3) {
    fresh->run_block(first, std::min(3, 16 - first), partial.data() + first);
  }
  for (int trial = 0; trial < 16; ++trial) {
    ASSERT_EQ(summary_bytes(forward[static_cast<std::size_t>(trial)]),
              summary_bytes(reversed[static_cast<std::size_t>(trial)]))
        << trial;
    // Partial blocks place each trial in a different lane slot than the
    // full-width run -- identical bytes prove the SoA bank reset and lane
    // renumbering leak nothing between blocks.
    ASSERT_EQ(summary_bytes(forward[static_cast<std::size_t>(trial)]),
              summary_bytes(partial[static_cast<std::size_t>(trial)]))
        << trial;
  }
}

TEST(BatchInvariance, DirectToSummaryMatchesTheComposedScalarPath) {
  // exec::TrialWorkspace::run_le_trial_summary is the executor's scalar
  // fold: it must equal summarize_trial(run_le_trial(...)) byte for byte,
  // including the first-violation strings (abortable cells) and the RMR
  // tallies (armed models), without materializing LeRunResult.
  struct Cell {
    algo::AlgorithmId algorithm;
    algo::AdversaryId adversary;
    rmr::RmrModel rmr;
  };
  const Cell cells[] = {
      {algo::AlgorithmId::kLogStarChain, algo::AdversaryId::kUniformRandom,
       rmr::RmrModel::kNone},
      {algo::AlgorithmId::kRatRace, algo::AdversaryId::kCrashAfterOps,
       rmr::RmrModel::kNone},
      {algo::AlgorithmId::kSiftCascade, algo::AdversaryId::kRoundRobin,
       rmr::RmrModel::kCC},
      {algo::AlgorithmId::kTournament, algo::AdversaryId::kSequential,
       rmr::RmrModel::kDSM},
      // The abort adversary against the abortable baseline exercises the
      // abort outcome counts and the per-pid abort violation scan.
      {algo::AlgorithmId::kAbortableRace, algo::AdversaryId::kAbortAfterOps,
       rmr::RmrModel::kNone},
  };
  constexpr int kTrials = 8;
  for (const Cell& cell : cells) {
    sim::Kernel::Options options;
    options.rmr_model = cell.rmr;
    const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
    const sim::AdversaryFactory factory =
        algo::adversary_factory(cell.adversary);
    exec::TrialWorkspace composed;
    exec::TrialWorkspace direct;
    for (int trial = 0; trial < kTrials; ++trial) {
      const exec::TrialSummary expected =
          sim::summarize_trial(composed.run_le_trial(
              /*key=*/0, builder, /*n=*/8, /*k=*/8, factory, trial, kSeed0,
              options));
      const exec::TrialSummary got = direct.run_le_trial_summary(
          /*key=*/0, builder, /*n=*/8, /*k=*/8, factory, trial, kSeed0,
          options);
      ASSERT_EQ(summary_bytes(expected), summary_bytes(got))
          << algo::info(cell.algorithm).name << " x "
          << algo::info(cell.adversary).name << " trial " << trial;
    }
  }
}

TEST(BatchInvariance, CampaignBatchKnobNeverChangesReporterBytes) {
  // End-to-end executor gate: a mixed grid -- an eligible algorithm, an
  // algorithm with no batch machine, an eligible adversary, and an
  // adversary with an impure schedule -- must render identical reporter
  // bytes whether the batch fast path is off, narrow, or wider than the
  // cell (and under work stealing).  Ineligible cells silently keep the
  // scalar kernel; that fallback is what this grid probes.
  campaign::CampaignSpec spec;
  spec.name = "batch-gate";
  spec.algorithms = {algo::AlgorithmId::kLogStarChain,
                     algo::AlgorithmId::kRatRace};
  spec.adversaries = {algo::AdversaryId::kUniformRandom,
                      algo::AdversaryId::kAbortAfterOps};
  spec.ks = {2, 6};
  spec.trials = 10;
  spec.seed = 404;
  std::string reference_jsonl;
  std::string reference_csv;
  for (const int lanes : {0, 1, 8, 64}) {
    campaign::ExecutorOptions options;
    options.sim_batch_lanes = lanes;
    options.workers = (lanes == 8) ? 3 : 1;  // steal across batched blocks
    const campaign::CampaignResult result =
        campaign::run_campaign(spec, options);
    const std::string jsonl =
        campaign::render_to_string(result, campaign::ReportFormat::kJsonl);
    const std::string csv =
        campaign::render_to_string(result, campaign::ReportFormat::kCsv);
    EXPECT_FALSE(jsonl.empty());
    if (reference_jsonl.empty()) {
      reference_jsonl = jsonl;
      reference_csv = csv;
    } else {
      EXPECT_EQ(jsonl, reference_jsonl) << "sim_batch_lanes=" << lanes;
      EXPECT_EQ(csv, reference_csv) << "sim_batch_lanes=" << lanes;
    }
  }
}

}  // namespace
}  // namespace rts
