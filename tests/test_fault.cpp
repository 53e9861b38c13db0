// Tests for the fault-injection chaos layer (src/fault/) and its wiring
// through the election service path:
//
//  * backoff policy: seeded-jitter reproducibility, cap enforcement, exact
//    exponential schedule at zero jitter,
//  * fault-plan grammar: round-trips, rejection of malformed specs,
//  * per-trial fault dealing: pure function of (plan, seed, k), all-no-show
//    sparing, worker-0 death immunity,
//  * TrialSummary checkpoint codec and cell checkpoint files (round-trip,
//    spec-hash mismatch skip, corruption skip),
//  * campaign checkpoint/resume: byte-identical reporter output across
//    (uninterrupted) vs (checkpointed) vs (resumed) runs,
//  * simulated worker death: campaign bytes unchanged, campaign completes,
//  * CrashInjectingAdversary edges: max_crashes exhaustion, last-runnable
//    sparing at crash_prob = 1.0, determinism across --workers,
//  * SIGINT flag plumbing and soak-driver cooperative cancellation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "campaign/executor.hpp"
#include "campaign/reporter.hpp"
#include "campaign/soak.hpp"
#include "campaign/spec.hpp"
#include "exec/backend.hpp"
#include "fault/backoff.hpp"
#include "fault/checkpoint.hpp"
#include "fault/plan.hpp"
#include "fault/signal.hpp"
#include "sim/adversaries.hpp"
#include "sim/runner.hpp"

namespace rts::fault {
namespace {

std::string fresh_temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "rts-fault-" + name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------- backoff --

TEST(Backoff, SeededJitterIsReproducible) {
  const BackoffPolicy policy;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
      EXPECT_EQ(policy.delay_us(attempt, seed), policy.delay_us(attempt, seed))
          << "attempt " << attempt << " seed " << seed;
    }
  }
  // Different seeds decorrelate at least one attempt (jitter is real).
  bool differs = false;
  for (int attempt = 1; attempt <= 8 && !differs; ++attempt) {
    differs = policy.delay_us(attempt, 1) != policy.delay_us(attempt, 2);
  }
  EXPECT_TRUE(differs);
}

TEST(Backoff, NeverExceedsCapAndRespectsJitterFloor) {
  BackoffPolicy policy;
  policy.base_us = 100;
  policy.cap_us = 5'000;
  policy.jitter = 0.5;
  for (int attempt = 1; attempt <= 30; ++attempt) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      const std::uint64_t delay = policy.delay_us(attempt, seed);
      EXPECT_LE(delay, policy.cap_us) << "attempt " << attempt;
      // Subtractive jitter: never below (1 - jitter) * capped value.
      const std::uint64_t capped =
          attempt >= 7 ? policy.cap_us
                       : std::min(policy.cap_us,
                                  policy.base_us << (attempt - 1));
      EXPECT_GE(delay, capped - capped / 2) << "attempt " << attempt;
    }
  }
}

TEST(Backoff, ZeroJitterGivesExactExponentialSchedule) {
  BackoffPolicy policy;
  policy.base_us = 100;
  policy.cap_us = 1'000;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.delay_us(1, 7), 100u);
  EXPECT_EQ(policy.delay_us(2, 7), 200u);
  EXPECT_EQ(policy.delay_us(3, 7), 400u);
  EXPECT_EQ(policy.delay_us(4, 7), 800u);
  EXPECT_EQ(policy.delay_us(5, 7), 1'000u);   // capped
  EXPECT_EQ(policy.delay_us(40, 7), 1'000u);  // huge attempt: still capped
}

// ------------------------------------------------------------ fault plan --

TEST(FaultPlan, ParsesFullGrammar) {
  std::string error;
  const auto plan = FaultPlan::parse(
      "stall:p=0.25,us=1500; noshow:p=0.1; delay:p=0.5,us=200; die:p=0.05",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_DOUBLE_EQ(plan->stall_p, 0.25);
  EXPECT_EQ(plan->stall_us, 1500u);
  EXPECT_DOUBLE_EQ(plan->noshow_p, 0.1);
  EXPECT_DOUBLE_EQ(plan->delay_p, 0.5);
  EXPECT_EQ(plan->delay_us, 200u);
  EXPECT_DOUBLE_EQ(plan->die_p, 0.05);
  EXPECT_TRUE(plan->active());
  // The original text is carried for reports.
  EXPECT_FALSE(plan->spec.empty());
}

TEST(FaultPlan, EmptySpecIsInactive) {
  const auto plan = FaultPlan::parse("", nullptr);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->active());
  EXPECT_FALSE(plan->for_trial(1, 8).any());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("explode:p=1", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultPlan::parse("stall:p=1.5,us=10", nullptr).has_value());
  EXPECT_FALSE(FaultPlan::parse("noshow:p=-0.1", nullptr).has_value());
  EXPECT_FALSE(FaultPlan::parse("stall:p=0.5", nullptr).has_value())
      << "stall with p > 0 needs a positive duration";
  EXPECT_FALSE(FaultPlan::parse("delay:p=0.5,us=0", nullptr).has_value());
  EXPECT_FALSE(FaultPlan::parse("noshow:frequency=0.5", nullptr).has_value());
  // Non-finite probabilities: NaN fails every comparison, so a range check
  // written as `p < 0 || p > 1` would let it through and inject nothing.
  for (const char* spec : {"delay:p=nan,us=200000", "delay:p=-nan,us=200000",
                           "delay:p=inf,us=200000"}) {
    EXPECT_FALSE(FaultPlan::parse(spec, &error).has_value()) << spec;
  }
}

TEST(FaultPlan, ForTrialIsPureInSeed) {
  const auto plan = FaultPlan::parse(
      "stall:p=0.4,us=100; noshow:p=0.3; delay:p=0.4,us=50", nullptr);
  ASSERT_TRUE(plan.has_value());
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const TrialFaults a = plan->for_trial(seed, 8);
    const TrialFaults b = plan->for_trial(seed, 8);
    ASSERT_EQ(a.participants.size(), 8u);
    EXPECT_EQ(a.no_shows, b.no_shows);
    EXPECT_EQ(a.stalls, b.stalls);
    EXPECT_EQ(a.delays, b.delays);
    int no_shows = 0, stalls = 0, delays = 0;
    for (std::size_t i = 0; i < a.participants.size(); ++i) {
      EXPECT_EQ(a.participants[i].no_show, b.participants[i].no_show);
      EXPECT_EQ(a.participants[i].stall_us, b.participants[i].stall_us);
      EXPECT_EQ(a.participants[i].stall_after_op,
                b.participants[i].stall_after_op);
      EXPECT_EQ(a.participants[i].delay_us, b.participants[i].delay_us);
      no_shows += a.participants[i].no_show ? 1 : 0;
      stalls += a.participants[i].stall_us > 0 ? 1 : 0;
      delays += a.participants[i].delay_us > 0 ? 1 : 0;
    }
    // The summary counts are exactly the per-participant assignment.
    EXPECT_EQ(a.no_shows, no_shows);
    EXPECT_EQ(a.stalls, stalls);
    EXPECT_EQ(a.delays, delays);
  }
}

TEST(FaultPlan, AllNoShowSparesOneParticipant) {
  const auto plan = FaultPlan::parse("noshow:p=1.0", nullptr);
  ASSERT_TRUE(plan.has_value());
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const TrialFaults faults = plan->for_trial(seed, 4);
    EXPECT_EQ(faults.no_shows, 3) << "seed " << seed;
    EXPECT_FALSE(faults.participants.front().no_show)
        << "the spared contender is deterministic";
  }
}

TEST(FaultPlan, WorkerZeroNeverDies) {
  const auto plan = FaultPlan::parse("die:p=1.0", nullptr);
  ASSERT_TRUE(plan.has_value());
  for (std::uint64_t claim = 0; claim < 64; ++claim) {
    EXPECT_FALSE(plan->worker_dies(/*master_seed=*/99, /*worker=*/0, claim));
    EXPECT_TRUE(plan->worker_dies(99, 1, claim));
  }
  const auto never = FaultPlan::parse("die:p=0.0", nullptr);
  ASSERT_TRUE(never.has_value());
  EXPECT_FALSE(never->worker_dies(99, 3, 0));
  // Pure in (seed, worker, claim).
  const auto coin = FaultPlan::parse("die:p=0.5", nullptr);
  ASSERT_TRUE(coin.has_value());
  for (int worker = 1; worker <= 4; ++worker) {
    for (std::uint64_t claim = 0; claim < 16; ++claim) {
      EXPECT_EQ(coin->worker_dies(7, worker, claim),
                coin->worker_dies(7, worker, claim));
    }
  }
}

// -------------------------------------------------------------- codec --

exec::TrialSummary full_summary() {
  exec::TrialSummary trial;
  trial.backend = exec::Backend::kHw;
  trial.k = 6;
  trial.max_steps = 123;
  trial.total_steps = 456;
  trial.regs_touched = 78;
  trial.declared_registers = 90;
  trial.unfinished = 2;
  trial.crash_free = false;
  trial.completed = false;
  trial.wall_seconds = 0.125;
  trial.latency = 987'654;
  trial.rmr_total = 11;
  trial.rmr_max = 7;
  trial.aborted = 1;
  trial.retries = 3;
  trial.timed_out = true;
  trial.first_violation = "safety: two winners";
  return trial;
}

TEST(Checkpoint, TrialSummaryCodecRoundTripsEveryField) {
  const exec::TrialSummary trial = full_summary();
  std::string buffer;
  exec::append_trial_summary(buffer, trial);
  const auto* cursor =
      reinterpret_cast<const unsigned char*>(buffer.data());
  const auto* end = cursor + buffer.size();
  exec::TrialSummary decoded;
  ASSERT_TRUE(exec::read_trial_summary(&cursor, end, &decoded));
  EXPECT_EQ(cursor, end) << "codec must consume exactly what it wrote";
  EXPECT_EQ(decoded.backend, trial.backend);
  EXPECT_EQ(decoded.k, trial.k);
  EXPECT_EQ(decoded.max_steps, trial.max_steps);
  EXPECT_EQ(decoded.total_steps, trial.total_steps);
  EXPECT_EQ(decoded.regs_touched, trial.regs_touched);
  EXPECT_EQ(decoded.declared_registers, trial.declared_registers);
  EXPECT_EQ(decoded.unfinished, trial.unfinished);
  EXPECT_EQ(decoded.crash_free, trial.crash_free);
  EXPECT_EQ(decoded.completed, trial.completed);
  EXPECT_EQ(decoded.wall_seconds, trial.wall_seconds);
  EXPECT_EQ(decoded.latency, trial.latency);
  EXPECT_EQ(decoded.rmr_total, trial.rmr_total);
  EXPECT_EQ(decoded.rmr_max, trial.rmr_max);
  EXPECT_EQ(decoded.aborted, trial.aborted);
  EXPECT_EQ(decoded.retries, trial.retries);
  EXPECT_EQ(decoded.timed_out, trial.timed_out);
  EXPECT_EQ(decoded.first_violation, trial.first_violation);
}

TEST(Checkpoint, ReadRejectsTruncatedInput) {
  std::string buffer;
  exec::append_trial_summary(buffer, full_summary());
  for (const std::size_t cut : {std::size_t{0}, buffer.size() / 2,
                                buffer.size() - 1}) {
    const auto* cursor =
        reinterpret_cast<const unsigned char*>(buffer.data());
    exec::TrialSummary decoded;
    EXPECT_FALSE(exec::read_trial_summary(&cursor, cursor + cut, &decoded))
        << "cut at " << cut;
  }
}

CellCheckpoint sample_cell(int cell_index, int trials) {
  CellCheckpoint cell;
  cell.cell_index = cell_index;
  cell.ran.assign(static_cast<std::size_t>(trials), 1);
  cell.errored.assign(static_cast<std::size_t>(trials), 0);
  cell.summaries.resize(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    exec::TrialSummary trial = full_summary();
    trial.max_steps = static_cast<std::uint64_t>(100 + t);
    trial.first_violation.clear();
    cell.summaries[static_cast<std::size_t>(t)] = trial;
  }
  cell.errored[1] = 1;
  return cell;
}

TEST(Checkpoint, CellFileRoundTrips) {
  const std::string dir = fresh_temp_dir("roundtrip");
  const std::uint64_t spec_hash = 0x1234'5678'9abc'def0ull;
  std::string error;
  ASSERT_TRUE(write_cell_checkpoint(dir, spec_hash, sample_cell(3, 5), &error))
      << error;
  ASSERT_TRUE(write_checkpoint_manifest(dir, "test", spec_hash, 5, 7, &error))
      << error;
  EXPECT_TRUE(std::filesystem::exists(dir + "/CHECKPOINT.json"));

  const std::vector<CellCheckpoint> loaded =
      load_checkpoints(dir, spec_hash, /*trials=*/5, /*cells=*/7);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].cell_index, 3);
  ASSERT_EQ(loaded[0].summaries.size(), 5u);
  EXPECT_EQ(loaded[0].ran[0], 1);
  EXPECT_EQ(loaded[0].errored[1], 1);
  EXPECT_EQ(loaded[0].summaries[4].max_steps, 104u);
  EXPECT_EQ(loaded[0].summaries[0].retries, 3);
  EXPECT_TRUE(loaded[0].summaries[0].timed_out);
}

TEST(Checkpoint, SpecHashMismatchIsSkipped) {
  const std::string dir = fresh_temp_dir("spec-mismatch");
  ASSERT_TRUE(write_cell_checkpoint(dir, 111, sample_cell(0, 4), nullptr));
  EXPECT_TRUE(load_checkpoints(dir, /*spec_hash=*/222, 4, 1).empty());
  // Trial-count mismatch (the spec changed shape) is skipped the same way.
  EXPECT_TRUE(load_checkpoints(dir, 111, /*trials=*/9, 1).empty());
  EXPECT_EQ(load_checkpoints(dir, 111, 4, 1).size(), 1u);
}

TEST(Checkpoint, CorruptedFileIsSkippedNotTrusted) {
  const std::string dir = fresh_temp_dir("corrupt");
  ASSERT_TRUE(write_cell_checkpoint(dir, 42, sample_cell(0, 4), nullptr));
  const std::string path = dir + "/" + cell_checkpoint_filename(0);
  // Flip one payload byte; the trailer checksum must catch it.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(file.tellg());
  ASSERT_GT(size, 32);
  file.seekp(size / 2);
  char byte = 0;
  file.seekg(size / 2);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(size / 2);
  file.write(&byte, 1);
  file.close();
  EXPECT_TRUE(load_checkpoints(dir, 42, 4, 1).empty());
}

// ------------------------------------------------- campaign checkpointing --

campaign::CampaignSpec resume_spec() {
  campaign::CampaignSpec spec;
  spec.name = "fault-test";
  spec.algorithms = {algo::AlgorithmId::kLogStarChain,
                     algo::AlgorithmId::kRatRacePath};
  spec.adversaries = {algo::AdversaryId::kUniformRandom,
                      algo::AdversaryId::kCrashAfterOps};
  spec.ks = {4, 8};
  spec.trials = 12;
  spec.seed = 515;
  spec.seed_policy = campaign::SeedPolicy::kPerCell;
  return spec;
}

std::string all_reports(const campaign::CampaignResult& result) {
  return campaign::render_to_string(result, campaign::ReportFormat::kJsonl) +
         campaign::render_to_string(result, campaign::ReportFormat::kCsv) +
         campaign::render_to_string(result, campaign::ReportFormat::kTable);
}

TEST(CampaignCheckpoint, ResumeReproducesUninterruptedBytes) {
  const campaign::CampaignSpec spec = resume_spec();
  const std::string clean = all_reports(campaign::run_campaign(spec));

  // A fully checkpointed run renders the same bytes (checkpointing is pure
  // observation) and leaves one file per cell.
  const std::string dir = fresh_temp_dir("resume");
  campaign::ExecutorOptions options;
  options.workers = 3;
  options.checkpoint_dir = dir;
  const campaign::CampaignResult checkpointed =
      campaign::run_campaign(spec, options);
  EXPECT_EQ(all_reports(checkpointed), clean);
  EXPECT_EQ(checkpointed.cells_resumed, 0u);
  const std::size_t cells = checkpointed.cells.size();
  for (std::size_t c = 0; c < cells; ++c) {
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + cell_checkpoint_filename(static_cast<int>(c))))
        << "cell " << c;
  }

  // Resume with everything checkpointed: nothing re-runs, bytes identical.
  options.resume = true;
  options.workers = 2;
  const campaign::CampaignResult resumed =
      campaign::run_campaign(spec, options);
  EXPECT_EQ(resumed.cells_resumed, cells);
  EXPECT_EQ(all_reports(resumed), clean);

  // Simulate a kill that lost some cells: delete a few checkpoints; resume
  // re-runs exactly those cells and still renders identical bytes.
  std::filesystem::remove(dir + "/" + cell_checkpoint_filename(1));
  std::filesystem::remove(dir + "/" + cell_checkpoint_filename(4));
  const campaign::CampaignResult partial =
      campaign::run_campaign(spec, options);
  EXPECT_EQ(partial.cells_resumed, cells - 2);
  EXPECT_EQ(all_reports(partial), clean);
}

TEST(CampaignCheckpoint, PreSetCancelInterruptsAndStillReports) {
  const campaign::CampaignSpec spec = resume_spec();
  std::atomic<bool> cancel{true};
  campaign::ExecutorOptions options;
  options.workers = 2;
  options.cancel = &cancel;
  const std::string dir = fresh_temp_dir("interrupt");
  options.interrupt_checkpoint_dir = dir;
  const campaign::CampaignResult result =
      campaign::run_campaign(spec, options);
  EXPECT_TRUE(result.interrupted);
  // Workers stopped before claiming anything; the partial result still
  // renders (honest absence), and the fallback checkpoint dir has at least
  // its manifest so the campaign is resumable.
  for (const campaign::CellResult& cell : result.cells) {
    EXPECT_EQ(cell.trials_run, 0);
  }
  EXPECT_FALSE(
      campaign::render_to_string(result, campaign::ReportFormat::kJsonl)
          .empty());
  EXPECT_TRUE(std::filesystem::exists(dir + "/CHECKPOINT.json"));
}

TEST(CampaignChaos, WorkerDeathsLeaveReporterBytesUntouched) {
  const campaign::CampaignSpec spec = resume_spec();
  const std::string clean = all_reports(campaign::run_campaign(spec));

  campaign::ExecutorOptions options;
  options.workers = 4;
  options.fault_plan = *FaultPlan::parse("die:p=1.0", nullptr);
  campaign::CampaignResult result = campaign::run_campaign(spec, options);
  // Every mortal worker dies on its first claim check; worker 0 finishes
  // the whole campaign alone via work stealing.
  EXPECT_EQ(result.faults.worker_deaths, 3u);
  EXPECT_FALSE(result.interrupted);
  for (const campaign::CellResult& cell : result.cells) {
    EXPECT_EQ(cell.trials_run, spec.trials);
  }
  // Deaths are stderr-only; with the chaos schema gate cleared the
  // deterministic reporter bytes equal the clean run's.
  result.fault_spec.clear();
  EXPECT_EQ(all_reports(result), clean);
}

TEST(CampaignChaos, SimOnlyCampaignPlansNoParticipantFaults) {
  campaign::CampaignSpec spec = resume_spec();
  spec.trials = 4;
  campaign::ExecutorOptions options;
  options.fault_plan =
      *FaultPlan::parse("stall:p=1.0,us=10;noshow:p=0.5", nullptr);
  const campaign::CampaignResult result =
      campaign::run_campaign(spec, options);
  // Participant faults target hw elections; a sim-only grid plans none,
  // but the run still opts into the chaos schema (the plan was active).
  EXPECT_EQ(result.fault_spec, options.fault_plan.spec);
  EXPECT_EQ(result.faults.stalls, 0u);
  EXPECT_EQ(result.faults.no_shows, 0u);
  const std::string jsonl =
      campaign::render_to_string(result, campaign::ReportFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"faults\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"timed_out_runs\":0"), std::string::npos);
}

// ------------------------------------------------ crash adversary edges --

TEST(CrashAdversary, MaxCrashesExhaustsExactly) {
  sim::RoundRobinAdversary inner;
  sim::CrashInjectingAdversary adversary(inner, /*seed=*/5,
                                         /*crash_prob=*/1.0,
                                         /*max_crashes=*/3);
  const sim::LeRunResult result = sim::run_le_once(
      algo::sim_builder(algo::AlgorithmId::kLogStarChain), 8, 8, adversary, 5);
  EXPECT_EQ(adversary.crashes_injected(), 3);
  EXPECT_LE(result.winners, 1);
  EXPECT_EQ(result.unfinished, 3);
  EXPECT_FALSE(result.crash_free);
}

TEST(CrashAdversary, LastRunnableProcessIsSparedAtProbabilityOne) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::RoundRobinAdversary inner;
    sim::CrashInjectingAdversary adversary(inner, seed, /*crash_prob=*/1.0,
                                           /*max_crashes=*/1000);
    const sim::LeRunResult result = sim::run_le_once(
        algo::sim_builder(algo::AlgorithmId::kRatRacePath), 6, 6, adversary,
        seed);
    // Every decision crashes someone until one process remains; that
    // process must be spared and -- running solo -- must win.
    EXPECT_EQ(adversary.crashes_injected(), 5) << "seed " << seed;
    EXPECT_EQ(result.winners, 1) << "seed " << seed;
    EXPECT_EQ(result.unfinished, 5) << "seed " << seed;
    for (const std::string& violation : result.violations) {
      EXPECT_EQ(violation.find("safety"), std::string::npos) << violation;
    }
  }
}

TEST(CrashAdversary, CampaignBytesIdenticalAcrossWorkerCounts) {
  campaign::CampaignSpec spec;
  spec.name = "crash-workers";
  spec.algorithms = {algo::AlgorithmId::kLogStarChain,
                     algo::AlgorithmId::kCombinedSift};
  spec.adversaries = {algo::AdversaryId::kCrashAfterOps};
  spec.ks = {8, 16};
  spec.trials = 20;
  spec.seed = 17;
  spec.seed_policy = campaign::SeedPolicy::kPerCell;
  std::string reference;
  for (const int workers : {1, 4}) {
    campaign::ExecutorOptions options;
    options.workers = workers;
    const std::string bytes =
        all_reports(campaign::run_campaign(spec, options));
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
    }
  }
  EXPECT_NE(reference.find("crashed"), std::string::npos)
      << "the crash grid must exercise the crash accounting";
}

// ----------------------------------------------------- signals and soak --

TEST(Signal, RaisedSignalSetsTheSharedFlag) {
  install_interrupt_handler();
  install_interrupt_handler();  // idempotent
  clear_interrupt_for_testing();
  EXPECT_FALSE(interrupted());
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_TRUE(interrupted());
  EXPECT_TRUE(interrupt_flag()->load());
  clear_interrupt_for_testing();
  EXPECT_FALSE(interrupted());
}

TEST(Soak, PreSetCancelReturnsInterruptedPartialResult) {
  campaign::SoakSpec spec;
  spec.algorithms = {algo::AlgorithmId::kTournament};
  spec.k = 2;
  spec.duration_seconds = 5.0;  // would be way too slow if not cancelled
  spec.rate = 200.0;
  spec.seed = 9;
  std::atomic<bool> cancel{true};
  spec.cancel = &cancel;
  const std::vector<campaign::SoakResult> results =
      campaign::run_soak(spec, /*heartbeat=*/nullptr);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].interrupted);
  EXPECT_EQ(results[0].completed, 0u);
}

TEST(Soak, ChaosPlanForcesTimeoutsRetriesAndShedding) {
  // Every participant stalls 4ms against a 0.5ms deadline: the first
  // attempt of every served election must time out and retry, and with the
  // service wedged the backlog crosses the shed gate almost immediately.
  campaign::SoakSpec spec;
  spec.algorithms = {algo::AlgorithmId::kTournament};
  spec.k = 4;
  spec.duration_seconds = 0.25;
  spec.rate = 2000.0;
  spec.seed = 77;
  spec.deadline_ns = 500'000;
  spec.max_retries = 1;
  spec.backoff.base_us = 50;
  spec.backoff.cap_us = 200;
  spec.shed_backlog = 2;
  spec.faults = *FaultPlan::parse("stall:p=1.0,us=4000", nullptr);
  const std::vector<campaign::SoakResult> results =
      campaign::run_soak(spec, nullptr);
  ASSERT_EQ(results.size(), 1u);
  const campaign::SoakResult& result = results[0];
  EXPECT_GT(result.timed_out, 0u);
  EXPECT_GT(result.retried, 0u);
  EXPECT_GT(result.shed, 0u);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.faults.stalls, 0u);
  // Every *handled* arrival lands in exactly one outcome bucket; arrivals
  // still queued at the wall deadline are the (reported) served/planned gap.
  EXPECT_LE(result.completed + result.timed_out + result.shed, result.planned);
  EXPECT_GT(result.completed + result.timed_out + result.shed, 0u);
  // Honest absence: no completed elections means no latency samples.
  EXPECT_EQ(result.latency.count(), result.completed);
}

}  // namespace
}  // namespace rts::fault
