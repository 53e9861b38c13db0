// Batched-vs-scalar invariance: the load-bearing contract of the
// step-machine engine (sim/batch.hpp + algo/batch.cpp) is that for every
// *eligible* (algorithm, adversary) cell it reproduces the scalar trial
// path's exec::TrialSummary byte for byte, trial for trial -- the same
// discipline that keeps fresh and pooled kernels interchangeable.  These
// tests byte-compare the checkpoint codec serialization of both paths
// across the eligible catalogue (including crashing and aborting schedules
// and step-limit-starved trials), check that ineligible pairs refuse a
// stream, and property-test the register bank reset between blocks.
// Campaigns run eligible cells on the machines by default, so the
// campaign-level gate compares them with a record-mode campaign, which
// keeps the fiber kernel.  The runnable set the engine shares with the
// scalar kernel is tested in tests/test_runnable_set.cpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
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
    if (algo::batch_schedulable(info.id)) out.push_back(info.id);
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
  const std::vector<algo::AdversaryId> expected = {
      algo::AdversaryId::kUniformRandom, algo::AdversaryId::kRoundRobin,
      algo::AdversaryId::kSequential, algo::AdversaryId::kCrashAfterOps,
      algo::AdversaryId::kAbortAfterOps};
  EXPECT_EQ(eligible_adversaries(), expected);
}

TEST(BatchInvariance, BatchedMatchesScalarAcrossEligibleCatalogue) {
  constexpr int kTrials = 10;  // 10 = 8 + 2: exercises a partial last block
  // One-trial blocks are the campaign executor's default.
  for (const int lanes : {1, 8}) {
    for (const algo::AlgorithmId algorithm : eligible_algorithms()) {
      for (const algo::AdversaryId adversary : eligible_adversaries()) {
        for (const int k : {2, 8, 33}) {
          expect_bitwise_identical(algorithm, adversary, /*n=*/k, k, kTrials,
                                   lanes, /*step_limit=*/10'000'000);
        }
      }
    }
  }
}

TEST(BatchInvariance, BlockSizeNeverChangesResults) {
  // The block size only decides how many trials one engine call computes:
  // blocks of 1, 3 and 64 trials must produce the scalar bytes.
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
  // k > 64 exercises the multi-word membership bitmap of the engine's
  // runnable set; crash cells retire pids from the middle of both words.
  for (const algo::AdversaryId adversary :
       {algo::AdversaryId::kUniformRandom, algo::AdversaryId::kCrashAfterOps,
        algo::AdversaryId::kRoundRobin}) {
    expect_bitwise_identical(algo::AlgorithmId::kLogStarChain, adversary,
                             /*n=*/80, /*k=*/80, /*trials=*/6, /*lanes=*/4,
                             /*step_limit=*/10'000'000);
  }
}

TEST(BatchInvariance, StarvedTrialsStopEarlyAndIdentically) {
  // A tiny step limit starves most trials (completed=false, unfinished>0);
  // a starved trial must fold into exactly the scalar path's starved
  // summary, and its early stop must not disturb the next trial of the
  // block.
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
  // Adversaries that are not seedable and oblivious-class (the adaptive
  // attack-ge, trace replay) -- and algorithms without a machine -- must
  // return nullptr so callers fall back to the scalar kernel.
  for (const algo::AdversaryId adversary :
       {algo::AdversaryId::kGeNeutralizer, algo::AdversaryId::kReplay}) {
    EXPECT_FALSE(algo::batch_schedulable(adversary));
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
    // Partial blocks start at other trials than the full-width run --
    // identical bytes prove the bank reset leaks nothing between trials.
    ASSERT_EQ(summary_bytes(forward[static_cast<std::size_t>(trial)]),
              summary_bytes(partial[static_cast<std::size_t>(trial)]))
        << trial;
  }
}

TEST(BatchInvariance, DirectToSummaryMatchesTheComposedScalarPath) {
  // exec::TrialWorkspace::run_le_trial_summary's fiber path folds the
  // kernel straight into the summary: it must equal
  // summarize_trial(run_le_trial(...)) byte for byte, including the
  // first-violation strings (abortable cells) and the RMR tallies (armed
  // models), without materializing LeRunResult.  Each builder is stripped
  // of its machine, so the logstar cell pins that fold too instead of the
  // step machines (test_workspace covers the routed cells).
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
    sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
    builder.machine = nullptr;
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
  // End-to-end executor gate.  The reference is a record-mode campaign,
  // which runs every cell on the fiber kernel; without recording, eligible
  // cells run on the step machines at any block size.  The grid is every
  // machine algorithm against every oblivious scheduler, plus an algorithm
  // with no machine (ratrace) and an adaptive adversary (attack-ge), whose
  // cells keep the fiber kernel in every run.  The step limit starves some
  // trials, so starved trials are covered too.
  campaign::CampaignSpec spec;
  spec.name = "batch-gate";
  spec.algorithms = eligible_algorithms();
  spec.algorithms.push_back(algo::AlgorithmId::kRatRace);
  spec.adversaries = eligible_adversaries();
  spec.adversaries.push_back(algo::AdversaryId::kGeNeutralizer);
  spec.ks = {1, 2, 6, 65};
  spec.trials = 10;
  spec.seed = 404;
  spec.step_limit = 60;

  const std::string record_dir = ::testing::TempDir() + "rts-batch-gate-" +
                                 std::to_string(::getpid());
  std::filesystem::remove_all(record_dir);
  campaign::ExecutorOptions record;
  record.record_dir = record_dir;
  const campaign::CampaignResult reference =
      campaign::run_campaign(spec, record);
  std::filesystem::remove_all(record_dir);
  const std::string reference_jsonl =
      campaign::render_to_string(reference, campaign::ReportFormat::kJsonl);
  const std::string reference_csv =
      campaign::render_to_string(reference, campaign::ReportFormat::kCsv);
  ASSERT_FALSE(reference_jsonl.empty());

  int starved_cells = 0;
  for (const campaign::CellResult& cell : reference.cells) {
    if (cell.incomplete_runs > 0) ++starved_cells;
  }
  EXPECT_GT(starved_cells, 0);
  EXPECT_LT(starved_cells, static_cast<int>(reference.cells.size()));

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
    EXPECT_EQ(jsonl, reference_jsonl) << "sim_batch_lanes=" << lanes;
    EXPECT_EQ(csv, reference_csv) << "sim_batch_lanes=" << lanes;
  }
}

}  // namespace
}  // namespace rts
