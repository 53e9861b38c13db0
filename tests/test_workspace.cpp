// Tests for the pooled trial hot path (exec::TrialWorkspace) and the
// persistent hardware trial pool (hw::HwTrialPool).
//
// The load-bearing property: trials through a *reused* workspace are
// indistinguishable -- field for field, and bit for bit after aggregation --
// from the fresh-kernel path, for every sim algorithm under every catalogued
// adversary, including crashing schedules and step-limit-starved trials
// (a dirty trial must leave no state visible to the next one).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algo/batch.hpp"
#include "algo/registry.hpp"
#include "campaign/executor.hpp"
#include "exec/workspace.hpp"
#include "fiber/stack.hpp"
#include "hw/harness.hpp"
#include "sim/memory.hpp"
#include "sim/runner.hpp"

namespace rts::exec {
namespace {

void expect_same_summary(const TrialSummary& fresh, const TrialSummary& pooled,
                         const std::string& label) {
  std::string fresh_bytes;
  std::string pooled_bytes;
  append_trial_summary(fresh_bytes, fresh);
  append_trial_summary(pooled_bytes, pooled);
  EXPECT_EQ(fresh_bytes, pooled_bytes) << label;
  EXPECT_EQ(fresh.k, pooled.k) << label;
  EXPECT_EQ(fresh.max_steps, pooled.max_steps) << label;
  EXPECT_EQ(fresh.total_steps, pooled.total_steps) << label;
  EXPECT_EQ(fresh.regs_touched, pooled.regs_touched) << label;
  EXPECT_EQ(fresh.declared_registers, pooled.declared_registers) << label;
  EXPECT_EQ(fresh.unfinished, pooled.unfinished) << label;
  EXPECT_EQ(fresh.crash_free, pooled.crash_free) << label;
  EXPECT_EQ(fresh.completed, pooled.completed) << label;
  EXPECT_EQ(fresh.first_violation, pooled.first_violation) << label;
}

void expect_same_aggregate(const Aggregate& fresh, const Aggregate& pooled,
                           const std::string& label) {
  EXPECT_EQ(fresh.runs, pooled.runs) << label;
  EXPECT_EQ(fresh.violation_runs, pooled.violation_runs) << label;
  EXPECT_EQ(fresh.crashed_runs, pooled.crashed_runs) << label;
  // Bitwise double equality: the pooled fold must see the exact same values
  // in the exact same order.
  EXPECT_EQ(fresh.max_steps.mean(), pooled.max_steps.mean()) << label;
  EXPECT_EQ(fresh.max_steps.max(), pooled.max_steps.max()) << label;
  EXPECT_EQ(fresh.mean_steps.mean(), pooled.mean_steps.mean()) << label;
  EXPECT_EQ(fresh.total_steps.mean(), pooled.total_steps.mean()) << label;
  EXPECT_EQ(fresh.regs_touched.mean(), pooled.regs_touched.mean()) << label;
  EXPECT_EQ(fresh.unfinished.mean(), pooled.unfinished.mean()) << label;
}

TEST(TrialWorkspace, PooledMatchesFreshAcrossTheCatalogue) {
  constexpr int kTrials = 6;
  constexpr int kParticipants = 8;
  constexpr std::uint64_t kSeed0 = 99;
  for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
    if (!algo::supports(algorithm.id, exec::Backend::kSim)) continue;
    const sim::LeBuilder builder = algo::sim_builder(algorithm.id);
    for (const algo::AdversaryInfo& adversary : algo::all_adversaries()) {
      if (adversary.from_trace) continue;  // no seeded factory; see replay tests
      const sim::AdversaryFactory factory =
          algo::adversary_factory(adversary.id);
      const std::string label =
          std::string(algorithm.name) + " / " + adversary.name;

      Aggregate fresh_agg;
      Aggregate pooled_agg;
      TrialWorkspace workspace;
      for (int t = 0; t < kTrials; ++t) {
        const TrialSummary fresh = sim::summarize_trial(sim::run_le_trial(
            builder, kParticipants, kParticipants, factory, t, kSeed0));
        const TrialSummary pooled = sim::summarize_trial(
            workspace.run_le_trial(/*key=*/7, builder, kParticipants,
                                   kParticipants, factory, t, kSeed0));
        expect_same_summary(fresh, pooled,
                            label + " trial " + std::to_string(t));
        accumulate_trial(fresh_agg, fresh);
        accumulate_trial(pooled_agg, pooled);
      }
      expect_same_aggregate(fresh_agg, pooled_agg, label);
      // One stream, built exactly once, reused for every subsequent trial.
      EXPECT_EQ(workspace.stream_builds(), 1u) << label;
      EXPECT_EQ(workspace.trials_run(), static_cast<std::uint64_t>(kTrials))
          << label;
    }
  }
}

TEST(TrialWorkspace, StarvedTrialLeavesNoResidue) {
  // A trial cut off mid-election (tiny step budget: fibers abandoned with
  // live frames, registers half-written) must not perturb the next trial of
  // the same stream.
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kRatRacePath);
  const sim::AdversaryFactory factory =
      algo::adversary_factory(algo::AdversaryId::kUniformRandom);
  sim::Kernel::Options tiny;
  tiny.step_limit = 7;

  TrialWorkspace workspace;
  const TrialSummary starved =
      sim::summarize_trial(workspace.run_le_trial(1, builder, 8, 8, factory,
                                                  /*trial=*/0, 5, tiny));
  EXPECT_FALSE(starved.completed);
  EXPECT_GT(starved.unfinished, 0);

  // Same stream, next trial, same tiny budget: must equal the fresh path.
  const TrialSummary fresh = sim::summarize_trial(
      sim::run_le_trial(builder, 8, 8, factory, /*trial=*/1, 5, tiny));
  const TrialSummary pooled = sim::summarize_trial(
      workspace.run_le_trial(1, builder, 8, 8, factory, /*trial=*/1, 5, tiny));
  expect_same_summary(fresh, pooled, "after starved trial");
}

TEST(TrialWorkspace, CrashedTrialLeavesNoResidue) {
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kCombinedSift);
  const sim::AdversaryFactory crash =
      algo::adversary_factory(algo::AdversaryId::kCrashAfterOps);
  const sim::AdversaryFactory random =
      algo::adversary_factory(algo::AdversaryId::kUniformRandom);

  TrialWorkspace workspace;
  const TrialSummary crashed = sim::summarize_trial(
      workspace.run_le_trial(3, builder, 8, 8, crash, /*trial=*/0, 17));
  EXPECT_FALSE(crashed.crash_free);

  // Same stream (same kernel, fibers, and pooled adversary) right after the
  // crashed trial must equal the fresh path.  A stream key denotes one
  // scheduler -- the workspace pools the adversary object per key -- so the
  // crash-free follow-up runs on its own key; the crashed kernel's residue
  // freedom is proven on stream 3 itself.
  expect_same_summary(
      sim::summarize_trial(
          sim::run_le_trial(builder, 8, 8, crash, /*trial=*/1, 17)),
      sim::summarize_trial(
          workspace.run_le_trial(3, builder, 8, 8, crash, /*trial=*/1, 17)),
      "crash stream after crashed trial");

  const TrialSummary fresh = sim::summarize_trial(
      sim::run_le_trial(builder, 8, 8, random, /*trial=*/1, 17));
  const TrialSummary pooled = sim::summarize_trial(
      workspace.run_le_trial(4, builder, 8, 8, random, /*trial=*/1, 17));
  expect_same_summary(fresh, pooled, "after crashed trial");
}

TEST(TrialWorkspace, AdversaryObjectIsPooledAndReseeded) {
  // One adversary allocation per stream; every later trial reseeds it.  The
  // stateful crash scheduler is the adversary most likely to betray a
  // half-reset (budgets, crash counter, two PRNG streams), so pin it
  // trial-for-trial against the fresh path, which allocates every time.
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kRatRacePath);
  for (const algo::AdversaryInfo& adversary : algo::all_adversaries()) {
    if (adversary.from_trace) continue;
    const sim::AdversaryFactory factory =
        algo::adversary_factory(adversary.id);
    TrialWorkspace workspace;
    Aggregate fresh_agg;
    Aggregate pooled_agg;
    for (int t = 0; t < 8; ++t) {
      accumulate_trial(fresh_agg, sim::summarize_trial(sim::run_le_trial(
                                      builder, 8, 8, factory, t, 41)));
      accumulate_trial(pooled_agg,
                       sim::summarize_trial(workspace.run_le_trial(
                           0, builder, 8, 8, factory, t, 41)));
    }
    expect_same_aggregate(fresh_agg, pooled_agg, adversary.name);
    EXPECT_EQ(workspace.adversary_builds(), 1u) << adversary.name;
  }
}

TEST(TrialWorkspace, LruEvictionBoundsPreparedStreams) {
  TrialWorkspace::Options options;
  options.max_prepared = 2;
  TrialWorkspace workspace(options);
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kLogStarChain);
  const sim::AdversaryFactory factory =
      algo::adversary_factory(algo::AdversaryId::kUniformRandom);

  for (std::uint64_t key = 0; key < 4; ++key) {
    workspace.run_le_trial(key, builder, 4, 4, factory, 0, key);
  }
  EXPECT_LE(workspace.prepared_streams(), 2u);
  EXPECT_EQ(workspace.stream_builds(), 4u);

  // An evicted stream comes back correct (just rebuilt).
  const TrialSummary fresh = sim::summarize_trial(
      sim::run_le_trial(builder, 4, 4, factory, /*trial=*/1, 0));
  const TrialSummary pooled = sim::summarize_trial(
      workspace.run_le_trial(0, builder, 4, 4, factory, /*trial=*/1, 0));
  expect_same_summary(fresh, pooled, "after eviction");
}

TEST(TrialWorkspace, RecycledKeyWithNewShapeRebuilds) {
  TrialWorkspace workspace;
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kTournament);
  const sim::AdversaryFactory factory =
      algo::adversary_factory(algo::AdversaryId::kUniformRandom);
  workspace.run_le_trial(5, builder, 4, 4, factory, 0, 1);
  const TrialSummary fresh = sim::summarize_trial(
      sim::run_le_trial(builder, 8, 8, factory, /*trial=*/0, 1));
  const TrialSummary pooled = sim::summarize_trial(
      workspace.run_le_trial(5, builder, 8, 8, factory, /*trial=*/0, 1));
  expect_same_summary(fresh, pooled, "recycled key");
  EXPECT_EQ(workspace.stream_builds(), 2u);
}

TEST(TrialWorkspace, RunLeManyUsesThePooledPathBitwise) {
  // run_le_many drives a workspace internally; it must still reproduce the
  // historical fresh-kernel loop bit for bit.
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kSiftCascade);
  const sim::AdversaryFactory factory =
      algo::adversary_factory(algo::AdversaryId::kUniformRandom);
  Aggregate fresh_agg;
  for (int t = 0; t < 10; ++t) {
    accumulate_trial(fresh_agg, sim::summarize_trial(sim::run_le_trial(
                                    builder, 6, 6, factory, t, 23)));
  }
  const Aggregate pooled_agg = sim::run_le_many(builder, 6, 6, factory, 10, 23);
  expect_same_aggregate(fresh_agg, pooled_agg, "run_le_many");
}

TEST(TrialWorkspace, CampaignExecutorPooledLanesMatchTheFreshPath) {
  // The executor's per-worker workspaces (including work stealing, where a
  // worker picks up a cell another lane started) must not change a single
  // reported bit relative to serial fresh-kernel trials.
  campaign::CampaignSpec spec;
  spec.name = "ws-test";
  spec.algorithms = {algo::AlgorithmId::kLogStarChain,
                     algo::AlgorithmId::kRatRacePath};
  spec.adversaries = {algo::AdversaryId::kUniformRandom,
                      algo::AdversaryId::kCrashAfterOps};
  spec.ks = {2, 8};
  spec.trials = 7;
  spec.seed = 31;
  campaign::ExecutorOptions options;
  options.workers = 4;
  const campaign::CampaignResult result = campaign::run_campaign(spec, options);
  for (const campaign::CellResult& cell : result.cells) {
    Aggregate fresh_agg;
    const sim::LeBuilder builder = algo::sim_builder(cell.cell.algorithm);
    const sim::AdversaryFactory factory =
        algo::adversary_factory(cell.cell.adversary);
    sim::Kernel::Options kernel_options;
    kernel_options.step_limit = cell.cell.step_limit;
    for (int t = 0; t < cell.cell.trials; ++t) {
      accumulate_trial(
          fresh_agg,
          sim::summarize_trial(sim::run_le_trial(
              builder, cell.cell.n, cell.cell.k, factory, t, cell.cell.seed0,
              kernel_options)));
    }
    expect_same_aggregate(fresh_agg, cell.agg,
                          algo::info(cell.cell.algorithm).name);
  }
}

// --- The engine choice in run_le_trial_summary ----------------------------

std::vector<algo::AlgorithmId> machine_algorithms() {
  std::vector<algo::AlgorithmId> out;
  for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
    if (algo::supports(algorithm.id, Backend::kSim) &&
        algo::sim_builder(algorithm.id).machine) {
      out.push_back(algorithm.id);
    }
  }
  return out;
}

TEST(TrialWorkspace, SummaryRunsEligibleCellsOnTheMachinesWithoutFibers) {
  // Every machine algorithm x oblivious scheduler, at k = 1, 2 and 65 (past
  // a 64-pid word), under a step limit that starves the k = 65 trials: the
  // routed summaries equal the fresh fiber path byte for byte, and no
  // stream maps a single fiber stack.
  const algo::AdversaryId schedulers[] = {
      algo::AdversaryId::kUniformRandom, algo::AdversaryId::kRoundRobin,
      algo::AdversaryId::kSequential, algo::AdversaryId::kCrashAfterOps,
      algo::AdversaryId::kAbortAfterOps};
  const std::vector<algo::AlgorithmId> algorithms = machine_algorithms();
  ASSERT_EQ(algorithms.size(), 6u);
  constexpr int kTrials = 3;
  constexpr std::uint64_t kSeed0 = 61;
  sim::Kernel::Options options;
  options.step_limit = 90;

  struct Cell {
    algo::AlgorithmId algorithm;
    algo::AdversaryId adversary;
    int k;
  };
  std::vector<Cell> cells;
  for (const algo::AlgorithmId algorithm : algorithms) {
    for (const algo::AdversaryId adversary : schedulers) {
      for (const int k : {1, 2, 65}) cells.push_back({algorithm, adversary, k});
    }
  }

  // The workspace first, so the fresh path's stacks cannot hide a mapping.
  TrialWorkspace workspace;
  std::vector<TrialSummary> routed;
  const std::size_t stacks_before = fiber::live_stack_count();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const sim::LeBuilder builder = algo::sim_builder(cells[c].algorithm);
    const sim::AdversaryFactory factory =
        algo::adversary_factory(cells[c].adversary);
    for (int t = 0; t < kTrials; ++t) {
      routed.push_back(workspace.run_le_trial_summary(
          c, builder, cells[c].k, cells[c].k, factory, t, kSeed0, options));
    }
  }
  EXPECT_EQ(fiber::live_stack_count(), stacks_before);
  EXPECT_EQ(workspace.trials_run(), cells.size() * kTrials);
  EXPECT_EQ(workspace.stream_builds(), cells.size());
  EXPECT_EQ(workspace.adversary_builds(), cells.size());

  int starved = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const sim::LeBuilder builder = algo::sim_builder(cells[c].algorithm);
    const sim::AdversaryFactory factory =
        algo::adversary_factory(cells[c].adversary);
    for (int t = 0; t < kTrials; ++t) {
      const TrialSummary fresh = sim::summarize_trial(sim::run_le_trial(
          builder, cells[c].k, cells[c].k, factory, t, kSeed0, options));
      starved += fresh.completed ? 0 : 1;
      expect_same_summary(
          fresh, routed[c * kTrials + static_cast<std::size_t>(t)],
          std::string(algo::info(cells[c].algorithm).name) + " x " +
              algo::info(cells[c].adversary).name +
              " k=" + std::to_string(cells[c].k) + " trial " +
              std::to_string(t));
    }
  }
  EXPECT_GT(starved, 0);
}

TEST(TrialWorkspace, SummaryKeepsIneligibleCellsOnTheFiberKernel) {
  // An adaptive scheduler, an armed RMR model and a builder without its
  // machine each keep the fiber kernel, and still equal the fresh path.
  const sim::AdversaryFactory random =
      algo::adversary_factory(algo::AdversaryId::kUniformRandom);
  sim::LeBuilder stripped = algo::sim_builder(algo::AlgorithmId::kSiftCascade);
  stripped.machine = nullptr;
  sim::Kernel::Options cc;
  cc.rmr_model = rmr::RmrModel::kCC;
  struct Cell {
    const char* label;
    sim::LeBuilder builder;
    sim::AdversaryFactory factory;
    sim::Kernel::Options options;
  };
  const Cell cells[] = {
      {"logstar x attack-ge", algo::sim_builder(algo::AlgorithmId::kLogStarChain),
       algo::adversary_factory(algo::AdversaryId::kGeNeutralizer), {}},
      {"ratrace-path x random, cc",
       algo::sim_builder(algo::AlgorithmId::kRatRacePath), random, cc},
      {"cascade without its machine", stripped, random, {}},
  };
  for (const Cell& cell : cells) {
    TrialWorkspace workspace;
    for (int t = 0; t < 4; ++t) {
      const TrialSummary fresh = sim::summarize_trial(
          sim::run_le_trial(cell.builder, 8, 8, cell.factory, t, 5,
                            cell.options));
      const TrialSummary routed = workspace.run_le_trial_summary(
          0, cell.builder, 8, 8, cell.factory, t, 5, cell.options);
      expect_same_summary(fresh, routed,
                          std::string(cell.label) + " trial " +
                              std::to_string(t));
      // The machines charge no RMR; only the kernel can match this.
      if (cell.options.rmr_model != rmr::RmrModel::kNone) {
        EXPECT_GT(routed.rmr_total, 0u) << cell.label;
      }
    }
    EXPECT_EQ(workspace.stream_builds(), 1u) << cell.label;
    EXPECT_EQ(workspace.adversary_builds(), 1u) << cell.label;
  }
}

TEST(TrialWorkspace, MachineStreamsShareTheLruAndRebuildOnANewSeedStream) {
  TrialWorkspace::Options options;
  options.max_prepared = 2;
  TrialWorkspace workspace(options);
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kCombinedSift);
  const sim::AdversaryFactory factory =
      algo::adversary_factory(algo::AdversaryId::kCrashAfterOps);
  for (std::uint64_t key = 0; key < 4; ++key) {
    workspace.run_le_trial_summary(key, builder, 5, 5, factory, 0, key);
  }
  EXPECT_EQ(workspace.prepared_streams(), 2u);
  EXPECT_EQ(workspace.stream_builds(), 4u);
  EXPECT_EQ(workspace.adversary_builds(), 4u);
  EXPECT_EQ(workspace.trials_run(), 4u);

  // Key 3 again, with a new seed stream, then a new shape: each rebuilds.
  for (const auto& [k, seed0] : {std::pair{5, 77}, std::pair{6, 77}}) {
    const TrialSummary fresh = sim::summarize_trial(
        sim::run_le_trial(builder, k, k, factory, /*trial=*/2, seed0));
    const TrialSummary routed =
        workspace.run_le_trial_summary(3, builder, k, k, factory, 2, seed0);
    expect_same_summary(fresh, routed, "recycled key, k=" + std::to_string(k));
  }
  EXPECT_EQ(workspace.stream_builds(), 6u);

  // A fiber-only call on a machine stream's key rebuilds it on fibers; the
  // summary call then keeps that fiber stream.
  const TrialSummary fresh = sim::summarize_trial(
      sim::run_le_trial(builder, 6, 6, factory, /*trial=*/3, 77));
  expect_same_summary(fresh,
                      sim::summarize_trial(workspace.run_le_trial(
                          3, builder, 6, 6, factory, 3, 77)),
                      "fiber call on a machine key");
  expect_same_summary(
      fresh, workspace.run_le_trial_summary(3, builder, 6, 6, factory, 3, 77),
      "summary call on the rebuilt fiber stream");
  EXPECT_EQ(workspace.stream_builds(), 7u);
}

TEST(TrialWorkspace, SummaryAndLaneBlocksShareAKey) {
  // The call pattern of the benchmark's cross-check: one workspace and key
  // serve a routed summary trial and then a 32-trial block of the same
  // cell.  The routed streams live apart from the block cache, so this
  // neither throws nor disagrees.
  constexpr int kLanes = 32;
  constexpr int kCellTrials = 40;
  const algo::AlgorithmId algorithm = algo::AlgorithmId::kRatRacePath;
  const algo::AdversaryId adversary = algo::AdversaryId::kUniformRandom;
  const sim::LeBuilder builder = algo::sim_builder(algorithm);
  const sim::AdversaryFactory factory = algo::adversary_factory(adversary);
  TrialWorkspace workspace;
  for (const int trial : {17, kCellTrials - 1}) {
    const TrialSummary routed = workspace.run_le_trial_summary(
        9, builder, 64, 64, factory, trial, 123);
    const TrialSummary batched = workspace.run_le_batch_trial(
        9,
        [&] {
          return algo::make_batch_stream(algorithm, adversary, 64, 64, kLanes,
                                         123, sim::Kernel::Options{}.step_limit);
        },
        kLanes, trial, kCellTrials);
    expect_same_summary(routed, batched, "trial " + std::to_string(trial));
  }
}

TEST(SimMemory, InternsNamesAndKeepsThemAcrossValueResets) {
  sim::SimMemory memory;
  const sim::RegId a = memory.alloc("shared.flag");
  const sim::RegId b = memory.alloc("shared.flag");
  const sim::RegId c = memory.alloc("other");
  // Interned: equal names share storage.
  EXPECT_EQ(memory.slot(a).name.data(), memory.slot(b).name.data());
  EXPECT_NE(memory.slot(a).name.data(), memory.slot(c).name.data());

  memory.write(a, 42, /*pid=*/1);
  memory.read(c, /*pid=*/0);
  EXPECT_EQ(memory.touched(), 2u);

  memory.reset_values();
  EXPECT_EQ(memory.allocated(), 3u);
  EXPECT_EQ(memory.slot(a).name, "shared.flag");
  EXPECT_EQ(memory.slot(a).value, 0u);
  EXPECT_EQ(memory.slot(a).last_writer, -1);
  EXPECT_EQ(memory.slot(a).writes, 0u);
  EXPECT_EQ(memory.touched(), 0u);
  EXPECT_EQ(memory.total_reads(), 0u);
  EXPECT_EQ(memory.total_writes(), 0u);
}

TEST(HwTrialPool, ReusesParkedThreadsAcrossTrials) {
  hw::HwTrialPool pool(4);
  EXPECT_EQ(pool.capacity(), 4);
  for (int t = 0; t < 8; ++t) {
    const hw::HwRunResult r =
        pool.run_trial(algo::AlgorithmId::kTournament, 4, t, 11);
    EXPECT_TRUE(r.violations.empty()) << "trial " << t;
    EXPECT_EQ(r.winners, 1) << "trial " << t;
    EXPECT_TRUE(r.completed) << "trial " << t;
  }
  EXPECT_EQ(pool.trials_run(), 8u);
}

TEST(HwTrialPool, WatchdogMarksDivergingTrialsUnfinished) {
  hw::HwTrialPool pool(2);
  hw::HwRunOptions options;
  options.step_limit = 5'000;
  const hw::HwRunResult r =
      pool.run(algo::AlgorithmId::kDivergeHw, 2, /*seed=*/3, options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.winners, 0);
  EXPECT_TRUE(r.violations.empty());  // an aborted run is not a violation
  const TrialSummary trial = hw::summarize_trial(r);
  EXPECT_FALSE(trial.completed);
  EXPECT_EQ(trial.unfinished, 2);
  EXPECT_GE(trial.max_steps, options.step_limit);
}

TEST(HwTrialPool, WatchdogSurvivesCombinerChildFibers) {
  // Regression: the step budget must never throw on a child fiber's stack
  // (an exception cannot unwind across the fiber boundary).  Combined
  // algorithms run their sub-elections on child fibers; with a budget too
  // small to finish, the abort must surface as a clean incomplete trial,
  // not std::terminate.
  hw::HwTrialPool pool(4);
  hw::HwRunOptions options;
  options.step_limit = 3;
  const hw::HwRunResult r =
      pool.run(algo::AlgorithmId::kCombinedSift, 4, /*seed=*/7, options);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.violations.empty());
  // And with an ample budget the same pool still elects.
  const hw::HwRunResult ok =
      pool.run(algo::AlgorithmId::kCombinedSift, 4, /*seed=*/7);
  EXPECT_TRUE(ok.completed);
  EXPECT_EQ(ok.winners, 1);
}

TEST(HwTrialPool, RunHwManyTerminatesOnDivergingAlgorithms) {
  hw::HwRunOptions options;
  options.step_limit = 2'000;
  const Aggregate agg =
      hw::run_hw_many(algo::AlgorithmId::kDivergeHw, 2, 3, 5, options);
  EXPECT_EQ(agg.runs, 3);
  EXPECT_EQ(agg.violation_runs, 0);
  EXPECT_EQ(agg.unfinished.mean(), 2.0);
}

TEST(HwTrialPool, CampaignWithDivergingHwCellTerminatesCleanly) {
  // The ROADMAP gap this PR closes: an hw cell that never elects used to
  // hang the campaign; under --step-limit it must finish with every trial
  // counted incomplete/unfinished and zero violations.
  campaign::CampaignSpec spec;
  spec.name = "diverge-test";
  spec.backends = {exec::Backend::kHw};
  spec.algorithms = {algo::AlgorithmId::kDivergeHw};
  spec.adversaries = {algo::AdversaryId::kUniformRandom};
  spec.ks = {2};
  spec.trials = 3;
  spec.step_limit = 2'000;
  const campaign::CampaignResult result = campaign::run_campaign(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].trials_run, 3);
  EXPECT_EQ(result.cells[0].incomplete_runs, 3);
  EXPECT_EQ(result.cells[0].error_runs, 0);
  EXPECT_EQ(result.cells[0].agg.violation_runs, 0);
  EXPECT_EQ(result.cells[0].agg.unfinished.mean(), 2.0);
}

TEST(HwTrialPool, CombinedElectionsKeepLiveStacksFlat) {
  // Regression: a combiner maps each participant's two child stacks on that
  // participant's thread and releases them on the thread that destroys the
  // election.  Per-thread stack pools hoarded every release on the
  // destroying side, so participants mapped fresh stacks on every election
  // (+2k per combined-sift election) until the process ran out of
  // mappings.  Past warm-up the count must stay within one election's
  // worth of child stacks.
  constexpr int k = 3;
  hw::HwTrialPool pool(k);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    pool.run(algo::AlgorithmId::kCombinedSift, k, seed);
  }
  const std::size_t warm = fiber::live_stack_count();
  for (int e = 0; e < 10'000; ++e) {
    const hw::HwRunResult r = pool.run(algo::AlgorithmId::kCombinedSift, k,
                                       1'000 + static_cast<std::uint64_t>(e));
    ASSERT_TRUE(r.violations.empty()) << "election " << e;
    ASSERT_LE(fiber::live_stack_count(), warm + 2 * k)
        << "after " << e + 1 << " elections";
  }
}

TEST(HwTrialPool, MultiWorkerCombinedCampaignRunsClean) {
  // The campaign form of the same leak: every worker thread that destroyed
  // hw elections hoarded child stacks, and at k = 8 three workers crossed
  // the process's mapping limit within 2100 trials (an abort, not a
  // failed trial).
  campaign::CampaignSpec spec;
  spec.name = "combined-hw-stacks";
  spec.backends = {exec::Backend::kHw};
  spec.algorithms = {algo::AlgorithmId::kCombinedSift};
  spec.adversaries = {algo::AdversaryId::kUniformRandom};
  spec.ks = {8};
  spec.trials = 2100;
  campaign::ExecutorOptions options;
  options.workers = 3;
  const campaign::CampaignResult result = campaign::run_campaign(spec, options);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].trials_run, 2100);
  EXPECT_EQ(result.cells[0].error_runs, 0);
  EXPECT_EQ(result.cells[0].agg.violation_runs, 0);
}

}  // namespace
}  // namespace rts::exec
