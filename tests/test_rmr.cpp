// Tests for the RMR cost-model subsystem (rmr/model.hpp) and abortable TAS:
// hand-computed CC/DSM charging, tallies flowing through the runner and the
// campaign executor bitwise-identically for any worker count, abort-request
// validity for the abortable baseline, the additive v2 trace format (legacy
// recordings keep their exact v1 bytes), record -> replay -> minimize round
// trips under the rmr>=N predicate, and the reporter schema gate that keeps
// every pre-RMR campaign's output byte-stable.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "campaign/executor.hpp"
#include "campaign/presets.hpp"
#include "campaign/reporter.hpp"
#include "campaign/spec.hpp"
#include "exec/conformance.hpp"
#include "exec/workspace.hpp"
#include "rmr/model.hpp"
#include "sim/adversaries.hpp"
#include "sim/minimize.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"

namespace rts {
namespace {

using rmr::RmrCounter;
using rmr::RmrModel;

TEST(RmrModel, NamesRoundTrip) {
  EXPECT_STREQ(rmr::to_string(RmrModel::kNone), "none");
  EXPECT_STREQ(rmr::to_string(RmrModel::kCC), "cc");
  EXPECT_STREQ(rmr::to_string(RmrModel::kDSM), "dsm");
  for (const RmrModel model :
       {RmrModel::kNone, RmrModel::kCC, RmrModel::kDSM}) {
    RmrModel parsed;
    ASSERT_TRUE(rmr::parse_rmr_model(rmr::to_string(model), &parsed));
    EXPECT_EQ(parsed, model);
  }
  RmrModel parsed;
  EXPECT_FALSE(rmr::parse_rmr_model("ccc", &parsed));
  EXPECT_FALSE(rmr::parse_rmr_model("", &parsed));
}

TEST(RmrModel, CcChargesWritesAndInvalidatedReadsOnly) {
  // Hand-computed CC sequence over two processes.  Versions start at 1 and
  // "seen 0" means never accessed, so the first access to any register is a
  // cold miss.
  RmrCounter counter;
  counter.configure(RmrModel::kCC, 2);
  counter.on_write(0, 0);  // +1: writes are always remote
  EXPECT_EQ(counter.total(), 1u);
  counter.on_read(0, 0);  // free: the writer holds the fresh line
  EXPECT_EQ(counter.total(), 1u);
  counter.on_read(1, 0);  // +1: pid 1's copy is stale
  counter.on_read(1, 0);  // free: now cached
  EXPECT_EQ(counter.total(), 2u);
  counter.on_write(1, 0);  // +1: invalidates pid 0's copy
  counter.on_read(0, 0);   // +1: invalidated
  counter.on_read(0, 1);   // +1: cold first read of a fresh register
  counter.on_read(0, 1);   // free
  EXPECT_EQ(counter.total(), 5u);
  EXPECT_EQ(counter.by_pid(0), 3u);
  EXPECT_EQ(counter.by_pid(1), 2u);
  EXPECT_EQ(counter.by_reg(0), 4u);
  EXPECT_EQ(counter.by_reg(1), 1u);
  EXPECT_EQ(counter.max_by_pid(), 3u);

  // reset() clears tallies and invalidation state without reconfiguring:
  // the next read is a cold miss again.
  counter.reset();
  EXPECT_EQ(counter.total(), 0u);
  EXPECT_EQ(counter.max_by_pid(), 0u);
  counter.on_read(0, 0);
  EXPECT_EQ(counter.total(), 1u);
}

TEST(RmrModel, DsmChargesOutsideTheHomeSegmentOnly) {
  // Registers are homed by first-touch order (canonical index % k, k = 4):
  // reads and writes are charged alike, local accesses stay free no matter
  // how often the register changes, and DSM never caches.
  RmrCounter counter;
  counter.configure(RmrModel::kDSM, 4);
  counter.on_read(0, 10);   // canon 0 -> home 0: free for pid 0
  counter.on_write(1, 20);  // canon 1 -> home 1: free for pid 1
  counter.on_read(1, 10);   // +1: reg 10 is homed at 0
  counter.on_write(0, 20);  // +1: reg 20 is homed at 1
  counter.on_read(2, 30);   // canon 2 -> home 2: free
  counter.on_read(3, 30);   // +1
  counter.on_write(2, 40);  // canon 3 -> home 3: +1 for pid 2
  counter.on_read(3, 40);   // free: pid 3's own segment
  counter.on_read(1, 10);   // +1: no caching, remote stays remote
  EXPECT_EQ(counter.total(), 5u);
  EXPECT_EQ(counter.by_pid(0), 1u);
  EXPECT_EQ(counter.by_pid(1), 2u);
  EXPECT_EQ(counter.by_pid(2), 1u);
  EXPECT_EQ(counter.by_pid(3), 1u);
  EXPECT_EQ(counter.by_reg(10), 2u);
  EXPECT_EQ(counter.by_reg(20), 1u);
  EXPECT_EQ(counter.by_reg(30), 1u);
  EXPECT_EQ(counter.by_reg(40), 1u);
  EXPECT_EQ(counter.max_by_pid(), 2u);

  // reset() renumbers: the same physical register can land in a different
  // segment next trial if the trial touches registers in a different order.
  counter.reset();
  EXPECT_EQ(counter.total(), 0u);
  counter.on_read(0, 40);  // canon 0 -> home 0: free now
  EXPECT_EQ(counter.total(), 0u);
}

TEST(RmrPipeline, TalliesFlowThroughRunnerAndSummary) {
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kTournament);
  const sim::AdversaryFactory factory =
      algo::adversary_factory(algo::AdversaryId::kUniformRandom);
  for (const RmrModel model : {RmrModel::kNone, RmrModel::kCC, RmrModel::kDSM}) {
    sim::Kernel::Options options;
    options.rmr_model = model;
    const sim::LeRunResult result =
        sim::run_le_trial(builder, 6, 6, factory, /*trial=*/0, /*seed0=*/17,
                          options);
    EXPECT_TRUE(result.violations.empty()) << rmr::to_string(model);
    if (model == RmrModel::kNone) {
      EXPECT_EQ(result.rmr_total, 0u);
      EXPECT_EQ(result.rmr_max, 0u);
    } else {
      // A 6-process tournament must pay remote references under both models,
      // and no single pid can pay more than everyone together (or more than
      // its own shared-memory steps: each step is at most one access).
      EXPECT_GT(result.rmr_total, 0u) << rmr::to_string(model);
      EXPECT_GE(result.rmr_total, result.rmr_max) << rmr::to_string(model);
      EXPECT_LE(result.rmr_total, result.total_steps) << rmr::to_string(model);
    }
    const exec::TrialSummary summary = sim::summarize_trial(result);
    EXPECT_EQ(summary.rmr_total, result.rmr_total);
    EXPECT_EQ(summary.rmr_max, result.rmr_max);
    exec::Aggregate agg;
    exec::accumulate_trial(agg, summary);
    EXPECT_EQ(agg.rmr_total.mean(), static_cast<double>(result.rmr_total));
    EXPECT_EQ(agg.rmr_max.mean(), static_cast<double>(result.rmr_max));
  }
}

TEST(RmrPipeline, FreshAndPooledTalliesAreIdentical) {
  // The pooled workspace reuses one kernel (and one RmrCounter) across
  // trials; its tallies must still match a fresh kernel per trial exactly.
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kCombinedSift);
  const sim::AdversaryFactory factory =
      algo::adversary_factory(algo::AdversaryId::kUniformRandom);
  for (const RmrModel model : {RmrModel::kCC, RmrModel::kDSM}) {
    sim::Kernel::Options options;
    options.rmr_model = model;
    exec::TrialWorkspace workspace;
    for (int t = 0; t < 5; ++t) {
      const std::uint64_t seed = sim::trial_seed(23, t);
      const auto fresh_adv = factory(sim::adversary_seed(seed));
      const sim::LeRunResult fresh =
          sim::run_le_once(builder, 6, 6, *fresh_adv, seed, options);
      const auto pooled_adv = factory(sim::adversary_seed(seed));
      const sim::LeRunResult pooled = workspace.run_le_once(
          /*key=*/0, builder, 6, 6, *pooled_adv, seed, options);
      EXPECT_TRUE(exec::result_mismatch(fresh, pooled).empty())
          << rmr::to_string(model) << " trial " << t << ": "
          << exec::result_mismatch(fresh, pooled);
      EXPECT_GT(pooled.rmr_total, 0u);
    }
  }
}

TEST(RmrPipeline, GridAxisExpandsAndWorkerCountKeepsBytesIdentical) {
  campaign::CampaignSpec spec;
  spec.name = "rmr-unit";
  spec.algorithms = {algo::AlgorithmId::kTournament,
                     algo::AlgorithmId::kAbortableRace};
  spec.adversaries = {algo::AdversaryId::kUniformRandom,
                      algo::AdversaryId::kAbortAfterOps};
  spec.rmrs = {RmrModel::kCC, RmrModel::kDSM};
  spec.ks = {4, 6};
  spec.trials = 5;
  spec.seed = 99;
  spec.seed_policy = campaign::SeedPolicy::kPerCell;
  ASSERT_EQ(campaign::validate(spec), "");

  // 1 backend x 2 rmrs x 2 algorithms x 2 adversaries x 2 ks.
  const std::vector<campaign::CellSpec> cells = campaign::expand(spec);
  ASSERT_EQ(cells.size(), 16u);
  EXPECT_EQ(cells[0].rmr, RmrModel::kCC);
  EXPECT_EQ(cells[8].rmr, RmrModel::kDSM);
  EXPECT_TRUE(campaign::rmr_schema(spec));

  campaign::ExecutorOptions serial;
  serial.workers = 1;
  campaign::ExecutorOptions wide;
  wide.workers = 4;
  const campaign::CampaignResult a = campaign::run_campaign(spec, serial);
  const campaign::CampaignResult b = campaign::run_campaign(spec, wide);
  for (const campaign::ReportFormat format :
       {campaign::ReportFormat::kTable, campaign::ReportFormat::kJsonl,
        campaign::ReportFormat::kCsv}) {
    EXPECT_EQ(campaign::render_to_string(a, format),
              campaign::render_to_string(b, format));
  }
  const std::string jsonl =
      campaign::render_to_string(a, campaign::ReportFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"rmr\":\"cc\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"rmr\":\"dsm\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"rmr_total\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"aborted_runs\""), std::string::npos);
  const std::string csv =
      campaign::render_to_string(a, campaign::ReportFormat::kCsv);
  EXPECT_NE(csv.find(",rmr,rmr_total_mean,"), std::string::npos);
}

TEST(RmrPipeline, SpecHashSeparatesModelsButKeepsLegacyHashes) {
  campaign::CampaignSpec legacy;
  legacy.name = "hash-unit";
  legacy.algorithms = {algo::AlgorithmId::kTournament};
  legacy.adversaries = {algo::AdversaryId::kUniformRandom};
  legacy.ks = {4};
  campaign::CampaignSpec explicit_none = legacy;
  explicit_none.rmrs = {RmrModel::kNone};
  campaign::CampaignSpec cc = legacy;
  cc.rmrs = {RmrModel::kCC};
  // The default axis and an explicit {kNone} are the same spec; a real
  // model changes the identity.
  EXPECT_EQ(campaign::spec_hash(legacy), campaign::spec_hash(explicit_none));
  EXPECT_NE(campaign::spec_hash(legacy), campaign::spec_hash(cc));
}

TEST(AbortableTas, RegistryFlagsAreHonest) {
  for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
    EXPECT_EQ(algorithm.abortable,
              algorithm.id == algo::AlgorithmId::kAbortableRace)
        << algorithm.name;
  }
  for (const algo::AdversaryInfo& adversary : algo::all_adversaries()) {
    const bool may_abort = adversary.id == algo::AdversaryId::kAbortAfterOps ||
                           adversary.id == algo::AdversaryId::kReplay;
    EXPECT_EQ(adversary.aborts, may_abort) << adversary.name;
  }
}

TEST(AbortableTas, AbortsAreCleanAndNonAbortingRunsStillElect) {
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kAbortableRace);
  // Under the abort adversary: abort outcomes must actually happen, and an
  // aborted/lose split is never a violation (validity: a requested process
  // returns lose-or-abort, never win-after-abort silently miscounted).
  const sim::LeAggregate attacked = sim::run_le_many(
      builder, 8, 8, algo::adversary_factory(algo::AdversaryId::kAbortAfterOps),
      /*trials=*/20, /*seed0=*/31);
  EXPECT_EQ(attacked.runs, 20);
  EXPECT_EQ(attacked.violation_runs, 0);
  EXPECT_GT(attacked.aborted_runs, 0);
  // Without abort requests the abortable baseline is an ordinary TAS: one
  // winner, no aborts, no violations.
  const sim::LeAggregate calm = sim::run_le_many(
      builder, 8, 8, algo::adversary_factory(algo::AdversaryId::kUniformRandom),
      /*trials=*/20, /*seed0=*/31);
  EXPECT_EQ(calm.violation_runs, 0);
  EXPECT_EQ(calm.aborted_runs, 0);
}

TEST(AbortableTas, SoloUnabortedParticipantWins) {
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kAbortableRace);
  for (int trial = 0; trial < 10; ++trial) {
    const sim::LeRunResult result = sim::run_le_trial(
        builder, 4, 1, algo::adversary_factory(algo::AdversaryId::kUniformRandom),
        trial, /*seed0=*/7);
    EXPECT_EQ(result.winners, 1) << "trial " << trial;
    EXPECT_EQ(result.aborted, 0) << "trial " << trial;
    EXPECT_TRUE(result.violations.empty()) << "trial " << trial;
  }
}

/// `count` grants to `pid`.
std::vector<sim::Action> grants(int pid, std::size_t count) {
  return std::vector<sim::Action>(count, sim::Action::step(pid));
}

/// Replays a hand-written schedule on n = 4 under the prefix step limit
/// (its grant count), as the minimizer replays a candidate.  Grants left
/// over once every process has finished are never consumed.
std::optional<sim::LeRunResult> replay_hand_schedule(
    algo::AlgorithmId algorithm, int k,
    const std::vector<sim::Action>& actions) {
  return sim::replay_schedule_prefix(algo::sim_builder(algorithm), /*n=*/4, k,
                                     actions, sim::trial_seed(4840, 0));
}

TEST(AbortableTas, RequestBeforeTheLastGrantDemotesASoloWin) {
  const auto solo = replay_hand_schedule(algo::AlgorithmId::kAbortableRace, 1,
                                         grants(0, 10'000));
  ASSERT_TRUE(solo.has_value());
  ASSERT_EQ(solo->outcomes[0], sim::Outcome::kWin);
  const std::uint64_t m = solo->steps[0];
  ASSERT_GE(m, 2u);

  // Posted before the m-th grant, the request takes effect right after that
  // op: the op counts, and the win it completes is demoted.
  std::vector<sim::Action> actions = grants(0, m - 1);
  actions.push_back(sim::Action::abort_req(0));
  actions.push_back(sim::Action::step(0));
  const auto aborted =
      replay_hand_schedule(algo::AlgorithmId::kAbortableRace, 1, actions);
  ASSERT_TRUE(aborted.has_value());
  EXPECT_EQ(aborted->outcomes[0], sim::Outcome::kAbort);
  EXPECT_EQ(aborted->steps[0], m);
  EXPECT_TRUE(aborted->completed);
  EXPECT_TRUE(aborted->violations.empty()) << aborted->violations.front();
}

TEST(AbortableTas, RequestTakesEffectRightAfterTheNextGrantedOp) {
  // Two grants to pid 0, a request for pid 0, one more grant to pid 0; then
  // pid 1 runs alone to its finish.
  std::vector<sim::Action> actions = grants(0, 2);
  actions.push_back(sim::Action::abort_req(0));
  actions.push_back(sim::Action::step(0));
  std::vector<sim::Action> probe_actions = actions;
  const std::vector<sim::Action> surplus = grants(1, 10'000);
  probe_actions.insert(probe_actions.end(), surplus.begin(), surplus.end());
  const auto probe = replay_hand_schedule(algo::AlgorithmId::kAbortableRace,
                                          2, probe_actions);
  ASSERT_TRUE(probe.has_value());
  ASSERT_TRUE(probe->completed);
  const std::vector<sim::Action> finish = grants(1, probe->steps[1]);
  actions.insert(actions.end(), finish.begin(), finish.end());

  const auto abortable =
      replay_hand_schedule(algo::AlgorithmId::kAbortableRace, 2, actions);
  ASSERT_TRUE(abortable.has_value());
  EXPECT_EQ(abortable->outcomes[0], sim::Outcome::kAbort);
  EXPECT_EQ(abortable->steps[0], 3u);
  EXPECT_NE(abortable->outcomes[1], sim::Outcome::kUnknown);
  EXPECT_TRUE(abortable->completed);
  EXPECT_TRUE(abortable->violations.empty())
      << abortable->violations.front();

  // A non-abortable election ignores the request: after its third step
  // pid 0 still has an op pending when the grants run out.
  const auto plain =
      replay_hand_schedule(algo::AlgorithmId::kRatRacePath, 2, actions);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->outcomes[0], sim::Outcome::kUnknown);
  EXPECT_EQ(plain->steps[0], 3u);
  EXPECT_FALSE(plain->completed);
  EXPECT_EQ(plain->outcomes[1], abortable->outcomes[1]);
  EXPECT_EQ(plain->steps[1], abortable->steps[1]);
}

TEST(TraceFormatV2, LegacyCellsKeepVersion1Bytes) {
  // A recording with no RMR model and no abort action must encode exactly
  // as before the format revision: version byte 1 right after the 8-byte
  // magic, so every checked-in corpus trace's bytes are untouched.
  sim::CellTrace legacy;
  legacy.n = 4;
  legacy.k = 4;
  legacy.seed0 = 11;
  legacy.step_limit = 100;
  sim::TrialTrace trial;
  trial.trial_seed = 1;
  trial.adversary_seed = 2;
  trial.actions = {sim::Action::step(0), sim::Action::crash(1),
                   sim::Action::step(2)};
  legacy.trials.push_back(trial);
  const std::string v1_bytes = sim::encode_cell_trace(legacy);
  ASSERT_GT(v1_bytes.size(), 9u);
  EXPECT_EQ(v1_bytes[8], '\x01');

  // Adding an abort action or an RMR model flips the same cell to v2.
  sim::CellTrace with_abort = legacy;
  with_abort.trials[0].actions.push_back(sim::Action::abort_req(3));
  EXPECT_EQ(sim::encode_cell_trace(with_abort)[8], '\x02');
  sim::CellTrace with_rmr = legacy;
  with_rmr.rmr = RmrModel::kDSM;
  EXPECT_EQ(sim::encode_cell_trace(with_rmr)[8], '\x02');

  // And the v2 round trip preserves the new fields exactly.
  with_abort.rmr = RmrModel::kCC;
  with_abort.trials[0].rmr_total = 42;
  sim::CellTrace out;
  std::string error;
  ASSERT_TRUE(sim::decode_cell_trace(sim::encode_cell_trace(with_abort), &out,
                                     &error))
      << error;
  EXPECT_EQ(out.rmr, RmrModel::kCC);
  ASSERT_EQ(out.trials.size(), 1u);
  EXPECT_EQ(out.trials[0].rmr_total, 42u);
  ASSERT_EQ(out.trials[0].actions.size(), 4u);
  EXPECT_EQ(out.trials[0].actions[1].kind, sim::Action::Kind::kCrash);
  EXPECT_EQ(out.trials[0].actions[3].kind, sim::Action::Kind::kAbort);
  EXPECT_EQ(out.trials[0].actions[3].pid, 3);
}

/// Records `trials` abortable-TAS trials under the abort adversary with CC
/// accounting, as the campaign --record path would.
sim::CellTrace record_abortable_cell(int trials,
                                     std::vector<sim::LeRunResult>* results) {
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kAbortableRace);
  sim::Kernel::Options options;
  options.rmr_model = RmrModel::kCC;
  sim::CellTrace cell;
  cell.campaign = "rmr-unit";
  cell.algorithm = algo::info(algo::AlgorithmId::kAbortableRace).name;
  cell.adversary = algo::info(algo::AdversaryId::kAbortAfterOps).name;
  cell.n = 6;
  cell.k = 6;
  cell.seed0 = 4840;
  cell.step_limit = options.step_limit;
  cell.rmr = RmrModel::kCC;
  const sim::AdversaryFactory factory =
      algo::adversary_factory(algo::AdversaryId::kAbortAfterOps);
  for (int t = 0; t < trials; ++t) {
    sim::TrialTrace trial;
    trial.trial_seed = sim::trial_seed(cell.seed0, t);
    trial.adversary_seed = sim::adversary_seed(trial.trial_seed);
    const auto inner = factory(trial.adversary_seed);
    sim::RecordingAdversary recorder(*inner, &trial.actions);
    const sim::LeRunResult result = sim::run_le_once(
        builder, static_cast<int>(cell.n), static_cast<int>(cell.k), recorder,
        trial.trial_seed, options);
    sim::fill_trace_result(trial, result);
    results->push_back(result);
    cell.trials.push_back(std::move(trial));
  }
  return cell;
}

TEST(AbortableTas, AbortRecordingsReplayBitForBitWithRmrTotals) {
  std::vector<sim::LeRunResult> recorded;
  const sim::CellTrace cell = record_abortable_cell(4, &recorded);
  // At least one trial must carry a recorded abort, or the round trip
  // proves nothing about the new action kind.
  bool any_abort = false;
  for (const sim::TrialTrace& trial : cell.trials) {
    for (const sim::Action& action : trial.actions) {
      any_abort |= action.kind == sim::Action::Kind::kAbort;
    }
  }
  EXPECT_TRUE(any_abort);

  // Serialize through the v2 bytes, then re-drive through the standard
  // conformance harness: fresh and pooled sim must agree with the trace
  // (and each other) on everything including RMR totals; the hw drive must
  // recognize the trace as not hw-expressible and stay out.
  sim::CellTrace parsed;
  std::string error;
  ASSERT_TRUE(sim::decode_cell_trace(sim::encode_cell_trace(cell), &parsed,
                                     &error))
      << error;
  EXPECT_EQ(parsed.rmr, RmrModel::kCC);
  EXPECT_FALSE(exec::hw_expressible(parsed));
  const exec::ConformanceReport report = exec::check_cell(parsed, {});
  EXPECT_EQ(report.trials_checked, 4);
  EXPECT_EQ(report.fresh_runs, 4);
  EXPECT_EQ(report.pooled_runs, 4);
  EXPECT_EQ(report.hw_runs, 0);
  EXPECT_TRUE(report.mismatches.empty())
      << report.mismatches.front();
  for (std::size_t t = 0; t < recorded.size(); ++t) {
    EXPECT_GT(parsed.trials[t].rmr_total, 0u) << "trial " << t;
    EXPECT_EQ(parsed.trials[t].rmr_total, recorded[t].rmr_total)
        << "trial " << t;
  }
}

TEST(AbortableTas, MinimizeUnderRmrPredicateRoundTrips) {
  std::vector<sim::LeRunResult> recorded;
  const sim::CellTrace cell = record_abortable_cell(3, &recorded);
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kAbortableRace);

  // Pick the worst trial by RMR total, as a hunt would, and demand half of
  // it so the minimizer has slack to cut schedule actions.
  std::size_t worst = 0;
  for (std::size_t t = 1; t < recorded.size(); ++t) {
    if (recorded[t].rmr_total > recorded[worst].rmr_total) worst = t;
  }
  ASSERT_GT(recorded[worst].rmr_total, 1u);
  const std::uint64_t threshold = recorded[worst].rmr_total / 2;
  const sim::MinimizeResult minimized = sim::minimize_trial(
      builder, cell, worst, sim::pred_rmr_at_least(threshold));

  EXPECT_LE(minimized.stats.minimized_actions,
            minimized.stats.original_actions);
  EXPECT_EQ(minimized.cell.rmr, RmrModel::kCC);
  ASSERT_EQ(minimized.cell.trials.size(), 1u);
  EXPECT_GE(minimized.cell.trials[0].rmr_total, threshold);

  // The minimized cell is a standalone corpus-grade trace: it survives the
  // byte round trip and replays cleanly (RMR totals included) through both
  // sim paths of the conformance harness.
  sim::CellTrace parsed;
  std::string error;
  ASSERT_TRUE(sim::decode_cell_trace(sim::encode_cell_trace(minimized.cell),
                                     &parsed, &error))
      << error;
  const exec::ConformanceReport report = exec::check_cell(parsed, {});
  EXPECT_EQ(report.trials_checked, 1);
  EXPECT_TRUE(report.mismatches.empty()) << report.mismatches.front();

  // Idempotence: minimizing the minimized trace changes nothing.
  const sim::MinimizeResult again = sim::minimize_trial(
      builder, minimized.cell, 0, sim::pred_rmr_at_least(threshold));
  EXPECT_EQ(again.stats.minimized_actions, minimized.stats.minimized_actions);
}

TEST(ReporterSchema, RmrPredicateFamilyIsRegistered) {
  const auto spec = sim::parse_predicate_spec("rmr>=12");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->family, "rmr");
  ASSERT_TRUE(spec->threshold.has_value());
  EXPECT_EQ(*spec->threshold, 12u);
  EXPECT_TRUE(sim::predicate_family_thresholded("rmr"));
  const sim::TracePredicate predicate = sim::make_predicate(*spec);
  EXPECT_TRUE(predicate.needs_pooled);
  EXPECT_EQ(predicate.spec, "rmr>=12");
  sim::LeRunResult result;
  result.rmr_total = 77;
  EXPECT_EQ(sim::hunt_metric(*spec, result), 77u);
}

TEST(ReporterSchema, LegacyCampaignsEmitNoRmrBytes) {
  // The frozen-schema satellite: a sim-only campaign with the default RMR
  // axis and non-aborting adversaries renders the exact historical field
  // set -- no rmr, no abort counters -- in any format.
  campaign::CampaignSpec spec;
  spec.name = "legacy-unit";
  spec.algorithms = {algo::AlgorithmId::kTournament};
  spec.adversaries = {algo::AdversaryId::kUniformRandom};
  spec.ks = {4};
  spec.trials = 3;
  spec.seed = 5;
  EXPECT_FALSE(campaign::rmr_schema(spec));
  const campaign::CampaignResult result = campaign::run_campaign(spec, {});
  for (const campaign::ReportFormat format :
       {campaign::ReportFormat::kTable, campaign::ReportFormat::kJsonl,
        campaign::ReportFormat::kCsv}) {
    const std::string bytes = campaign::render_to_string(result, format);
    EXPECT_EQ(bytes.find("rmr"), std::string::npos)
        << "format " << static_cast<int>(format);
    EXPECT_EQ(bytes.find("aborted"), std::string::npos)
        << "format " << static_cast<int>(format);
  }
}

TEST(ReporterSchema, OnlyTheRmrPresetOptsIntoRmrFields) {
  bool saw_rmr_preset = false;
  for (const campaign::Preset& preset : campaign::all_presets()) {
    const bool is_rmr = std::string(preset.name) == "rmr";
    saw_rmr_preset |= is_rmr;
    EXPECT_EQ(campaign::rmr_schema(preset.spec), is_rmr) << preset.name;
  }
  EXPECT_TRUE(saw_rmr_preset);
  const campaign::Preset* preset = campaign::find_preset("rmr");
  ASSERT_NE(preset, nullptr);
  EXPECT_EQ(campaign::validate(preset->spec), "");
  EXPECT_EQ(preset->spec.rmrs.size(), 2u);
}

}  // namespace
}  // namespace rts
