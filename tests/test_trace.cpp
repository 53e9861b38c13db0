// Tests for the schedule record/replay substrate (sim/trace.hpp): binary
// round-tripping of the .rtst cell-trace format, corruption detection, and
// the core replay property -- every catalogue algorithm x adversary cell,
// recorded and then re-driven from the (serialized) trace, reproduces the
// recorded trials bit for bit, through both the fresh-kernel and the pooled
// workspace paths, crashed and step-limit-starved trials included.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "exec/workspace.hpp"
#include "sim/adversaries.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "support/math.hpp"

namespace rts::sim {
namespace {

void expect_same_result(const LeRunResult& recorded, const LeRunResult& replayed,
                        const std::string& label) {
  ASSERT_EQ(recorded.k, replayed.k) << label;
  for (int pid = 0; pid < recorded.k; ++pid) {
    const auto i = static_cast<std::size_t>(pid);
    EXPECT_EQ(recorded.outcomes[i], replayed.outcomes[i])
        << label << " pid " << pid;
    EXPECT_EQ(recorded.steps[i], replayed.steps[i]) << label << " pid " << pid;
  }
  EXPECT_EQ(recorded.max_steps, replayed.max_steps) << label;
  EXPECT_EQ(recorded.total_steps, replayed.total_steps) << label;
  EXPECT_EQ(recorded.winners, replayed.winners) << label;
  EXPECT_EQ(recorded.losers, replayed.losers) << label;
  EXPECT_EQ(recorded.unfinished, replayed.unfinished) << label;
  EXPECT_EQ(recorded.regs_touched, replayed.regs_touched) << label;
  EXPECT_EQ(recorded.declared_registers, replayed.declared_registers) << label;
  EXPECT_EQ(recorded.crash_free, replayed.crash_free) << label;
  EXPECT_EQ(recorded.completed, replayed.completed) << label;
  EXPECT_EQ(recorded.violations, replayed.violations) << label;
}

void expect_same_aggregate(const exec::Aggregate& a, const exec::Aggregate& b,
                           const std::string& label) {
  EXPECT_EQ(a.runs, b.runs) << label;
  EXPECT_EQ(a.violation_runs, b.violation_runs) << label;
  EXPECT_EQ(a.crashed_runs, b.crashed_runs) << label;
  // Bitwise double equality: same values folded in the same order.
  EXPECT_EQ(a.max_steps.mean(), b.max_steps.mean()) << label;
  EXPECT_EQ(a.mean_steps.mean(), b.mean_steps.mean()) << label;
  EXPECT_EQ(a.total_steps.mean(), b.total_steps.mean()) << label;
  EXPECT_EQ(a.regs_touched.mean(), b.regs_touched.mean()) << label;
  EXPECT_EQ(a.unfinished.mean(), b.unfinished.mean()) << label;
}

CellTrace sample_cell() {
  CellTrace cell;
  cell.campaign = "unit";
  cell.algorithm = "combined-sift";
  cell.adversary = "crash";
  cell.cell_index = 7;
  cell.n = 6;
  cell.k = 5;
  cell.seed0 = 0xdeadbeefcafeULL;
  cell.step_limit = 1'000'000;
  for (int t = 0; t < 3; ++t) {
    TrialTrace trial;
    trial.trial_seed = 100 + static_cast<std::uint64_t>(t);
    trial.adversary_seed = 200 + static_cast<std::uint64_t>(t);
    trial.actions = {Action::step(0), Action::step(4), Action::crash(2),
                     Action::step(1), Action::step(1)};
    trial.total_steps = 4;
    trial.max_steps = 2;
    trial.regs_touched = 9;
    trial.winner = t == 2 ? -1 : 1;
    trial.completed = t != 1;
    trial.crash_free = false;
    trial.outcome_digest = 0x1234'5678u + static_cast<std::uint64_t>(t);
    cell.trials.push_back(trial);
  }
  return cell;
}

TEST(TraceFormat, EncodeDecodeRoundTripsEveryField) {
  const CellTrace cell = sample_cell();
  const std::string bytes = encode_cell_trace(cell);
  CellTrace out;
  std::string error;
  ASSERT_TRUE(decode_cell_trace(bytes, &out, &error)) << error;
  EXPECT_EQ(out.campaign, cell.campaign);
  EXPECT_EQ(out.algorithm, cell.algorithm);
  EXPECT_EQ(out.adversary, cell.adversary);
  EXPECT_EQ(out.cell_index, cell.cell_index);
  EXPECT_EQ(out.n, cell.n);
  EXPECT_EQ(out.k, cell.k);
  EXPECT_EQ(out.seed0, cell.seed0);
  EXPECT_EQ(out.step_limit, cell.step_limit);
  ASSERT_EQ(out.trials.size(), cell.trials.size());
  for (std::size_t t = 0; t < cell.trials.size(); ++t) {
    const TrialTrace& want = cell.trials[t];
    const TrialTrace& got = out.trials[t];
    EXPECT_EQ(got.trial_seed, want.trial_seed);
    EXPECT_EQ(got.adversary_seed, want.adversary_seed);
    ASSERT_EQ(got.actions.size(), want.actions.size());
    for (std::size_t a = 0; a < want.actions.size(); ++a) {
      EXPECT_EQ(got.actions[a].kind, want.actions[a].kind);
      EXPECT_EQ(got.actions[a].pid, want.actions[a].pid);
    }
    EXPECT_EQ(got.total_steps, want.total_steps);
    EXPECT_EQ(got.max_steps, want.max_steps);
    EXPECT_EQ(got.regs_touched, want.regs_touched);
    EXPECT_EQ(got.winner, want.winner);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.crash_free, want.crash_free);
    EXPECT_EQ(got.outcome_digest, want.outcome_digest);
  }
}

/// `payload` with a fresh FNV-1a trailer, so a mutant reaches the parser
/// instead of failing corruption detection.
std::string resealed(std::string payload) {
  std::uint64_t checksum = support::kFnv1aOffset;
  support::fnv1a_bytes(checksum, payload);
  for (int byte = 0; byte < 8; ++byte) {
    payload.push_back(static_cast<char>((checksum >> (8 * byte)) & 0xffu));
  }
  return payload;
}

/// sample_cell()'s resealed encoding with the header's cell_index, n and k
/// varints replaced by the given values.
std::string with_header(std::uint64_t cell_index, std::uint64_t n,
                        std::uint64_t k) {
  const std::string bytes = encode_cell_trace(sample_cell());
  // The three fields follow the adversary name, one byte each (7, 6, 5).
  const std::size_t name = bytes.find("crash\x07\x06\x05");
  EXPECT_NE(name, std::string::npos);
  const std::size_t at = name + 5;
  std::string payload = bytes.substr(0, at);
  for (std::uint64_t value : {cell_index, n, k}) {  // LEB128, as encoded
    for (; value >= 0x80; value >>= 7) {
      payload.push_back(static_cast<char>((value & 0x7f) | 0x80));
    }
    payload.push_back(static_cast<char>(value));
  }
  payload += bytes.substr(at + 3, bytes.size() - 8 - (at + 3));
  return resealed(std::move(payload));
}

TEST(TraceFormat, RejectsCorruptTruncatedAndForeignBytes) {
  const std::string bytes = encode_cell_trace(sample_cell());
  CellTrace out;
  std::string error;

  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] = static_cast<char>(corrupt[bytes.size() / 2] ^ 0x40);
  EXPECT_FALSE(decode_cell_trace(corrupt, &out, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  EXPECT_FALSE(
      decode_cell_trace(std::string_view(bytes).substr(0, 10), &out, &error));
  EXPECT_FALSE(decode_cell_trace("not a trace file at all", &out, &error));

  // A version bump must be refused, not misparsed.  Patch the varint
  // version byte right after the magic and re-seal the checksum, so the
  // failure exercised is the version gate and not corruption detection.
  std::string wrong_version = bytes.substr(0, bytes.size() - 8);
  wrong_version[8] = 0x7e;
  EXPECT_FALSE(decode_cell_trace(resealed(wrong_version), &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Header fields past their bounds are refused, not truncated to 32 bits:
  // cell_index = 2^32 would decode as cell 0 and n = 2^32 + 5 as n = 5.
  ASSERT_TRUE(decode_cell_trace(with_header(7, 6, 5), &out, &error)) << error;
  constexpr std::uint64_t kMax = static_cast<std::uint64_t>(kMaxProcesses);
  for (const std::string& mutant :
       {with_header(std::uint64_t{1} << 32, 6, 5),
        with_header(7, (std::uint64_t{1} << 32) + 5, 5),
        with_header(7, kMax + 1, 5), with_header(7, 6, 0)}) {
    error.clear();
    EXPECT_FALSE(decode_cell_trace(mutant, &out, &error));
    EXPECT_EQ(error.rfind("trace: ", 0), 0u) << error;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  }
}

TEST(TraceFormat, FileRoundTripAndFilenames) {
  const CellTrace cell = sample_cell();
  const std::string path =
      ::testing::TempDir() + "rts_trace_roundtrip_" + cell_trace_filename(7);
  EXPECT_EQ(cell_trace_filename(7), "cell-0007.rtst");
  std::string error;
  ASSERT_TRUE(write_cell_trace_file(path, cell, &error)) << error;
  CellTrace out;
  ASSERT_TRUE(read_cell_trace_file(path, &out, &error)) << error;
  EXPECT_EQ(out.seed0, cell.seed0);
  ASSERT_EQ(out.trials.size(), 3u);
  EXPECT_EQ(out.trials[2].winner, -1);
  std::remove(path.c_str());
  EXPECT_FALSE(read_cell_trace_file(path, &out, &error));
}

/// Records `trials` trials of one (algorithm, adversary) stream through the
/// fresh path, keeping the per-trial results for comparison.
CellTrace record_stream(const sim::LeBuilder& builder,
                        const sim::AdversaryFactory& factory, int n, int k,
                        int trials, std::uint64_t seed0,
                        Kernel::Options kernel_options,
                        std::vector<LeRunResult>* results) {
  CellTrace cell;
  cell.n = static_cast<std::uint32_t>(n);
  cell.k = static_cast<std::uint32_t>(k);
  cell.seed0 = seed0;
  cell.step_limit = kernel_options.step_limit;
  for (int t = 0; t < trials; ++t) {
    TrialTrace trial;
    trial.trial_seed = trial_seed(seed0, t);
    trial.adversary_seed = adversary_seed(trial.trial_seed);
    const auto inner = factory(trial.adversary_seed);
    RecordingAdversary recorder(*inner, &trial.actions);
    const LeRunResult result = run_le_once(builder, n, k, recorder,
                                           trial.trial_seed, kernel_options);
    fill_trace_result(trial, result);
    results->push_back(result);
    cell.trials.push_back(std::move(trial));
  }
  return cell;
}

TEST(TraceReplay, EveryCatalogueCellReplaysBitForBit) {
  // The tentpole property: record -> serialize -> parse -> replay must
  // reproduce identical LeRunResults and aggregate bytes for every sim
  // algorithm under every seedable catalogue adversary, including the
  // crashing one.  Fresh and pooled replay paths are both checked.
  constexpr int kParticipants = 6;
  constexpr int kTrials = 4;
  for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
    if (!algo::supports(algorithm.id, exec::Backend::kSim)) continue;
    const sim::LeBuilder builder = algo::sim_builder(algorithm.id);
    for (const algo::AdversaryInfo& adversary : algo::all_adversaries()) {
      if (adversary.from_trace) continue;
      const std::string label =
          std::string(algorithm.name) + " / " + adversary.name;
      std::vector<LeRunResult> recorded;
      const CellTrace cell = record_stream(
          builder, algo::adversary_factory(adversary.id), kParticipants,
          kParticipants, kTrials, /*seed0=*/77, Kernel::Options{}, &recorded);

      // Serialization round trip in the middle, so the property covers the
      // bytes that would live on disk, not just the in-memory structs.
      CellTrace parsed;
      std::string error;
      ASSERT_TRUE(decode_cell_trace(encode_cell_trace(cell), &parsed, &error))
          << label << ": " << error;

      exec::Aggregate recorded_agg;
      exec::Aggregate fresh_agg;
      exec::Aggregate pooled_agg;
      exec::TrialWorkspace workspace;
      for (int t = 0; t < kTrials; ++t) {
        const TrialTrace& trial = parsed.trials[static_cast<std::size_t>(t)];
        ReplayAdversary fresh_replay(&trial.actions);
        const LeRunResult fresh =
            run_le_once(builder, kParticipants, kParticipants, fresh_replay,
                        trial.trial_seed);
        ReplayAdversary pooled_replay(&trial.actions);
        const LeRunResult pooled = workspace.run_le_once(
            /*key=*/0, builder, kParticipants, kParticipants, pooled_replay,
            trial.trial_seed);
        const std::string tag = label + " trial " + std::to_string(t);
        expect_same_result(recorded[static_cast<std::size_t>(t)], fresh,
                           tag + " (fresh)");
        expect_same_result(recorded[static_cast<std::size_t>(t)], pooled,
                           tag + " (pooled)");
        EXPECT_TRUE(replay_mismatch(trial, fresh).empty())
            << tag << ": " << replay_mismatch(trial, fresh);
        EXPECT_TRUE(fresh_replay.exhausted()) << tag;
        accumulate_trial(recorded_agg,
                         summarize_trial(recorded[static_cast<std::size_t>(t)]));
        accumulate_trial(fresh_agg, summarize_trial(fresh));
        accumulate_trial(pooled_agg, summarize_trial(pooled));
      }
      expect_same_aggregate(recorded_agg, fresh_agg, label + " fresh agg");
      expect_same_aggregate(recorded_agg, pooled_agg, label + " pooled agg");
    }
  }
}

TEST(TraceReplay, StepLimitStarvedTrialsReplayBitForBit) {
  // A starved recording ends mid-election; its replay must starve at the
  // same step with the same partial progress, on both replay paths.
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kCombinedSift);
  Kernel::Options tiny;
  tiny.step_limit = 11;
  std::vector<LeRunResult> recorded;
  const CellTrace cell = record_stream(
      builder, algo::adversary_factory(algo::AdversaryId::kUniformRandom), 6,
      6, 3, /*seed0=*/5, tiny, &recorded);
  ASSERT_FALSE(recorded[0].completed);

  exec::TrialWorkspace workspace;
  for (int t = 0; t < 3; ++t) {
    const TrialTrace& trial = cell.trials[static_cast<std::size_t>(t)];
    ReplayAdversary fresh_replay(&trial.actions);
    const LeRunResult fresh =
        run_le_once(builder, 6, 6, fresh_replay, trial.trial_seed, tiny);
    ReplayAdversary pooled_replay(&trial.actions);
    const LeRunResult pooled = workspace.run_le_once(
        0, builder, 6, 6, pooled_replay, trial.trial_seed, tiny);
    expect_same_result(recorded[static_cast<std::size_t>(t)], fresh,
                       "starved fresh " + std::to_string(t));
    expect_same_result(recorded[static_cast<std::size_t>(t)], pooled,
                       "starved pooled " + std::to_string(t));
  }
}

TEST(TraceReplay, DivergenceFailsLoudly) {
  const sim::LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kLogStarChain);
  std::vector<LeRunResult> recorded;
  CellTrace cell = record_stream(
      builder, algo::adversary_factory(algo::AdversaryId::kUniformRandom), 4,
      4, 1, /*seed0=*/3, Kernel::Options{}, &recorded);
  TrialTrace& trial = cell.trials[0];

  // Replaying with the wrong seed changes the coin flips: the run takes a
  // different path, and either the schedule stops fitting (throw) or the
  // observable digest disagrees -- silently matching is the one forbidden
  // outcome.
  bool diverged = false;
  try {
    ReplayAdversary replay(&trial.actions);
    const LeRunResult result =
        run_le_once(builder, 4, 4, replay, trial.trial_seed + 1);
    diverged = !replay_mismatch(trial, result).empty();
  } catch (const Error&) {
    diverged = true;
  }
  EXPECT_TRUE(diverged);

  // A truncated schedule exhausts mid-run.
  ASSERT_GT(trial.actions.size(), 2u);
  trial.actions.resize(trial.actions.size() / 2);
  ReplayAdversary truncated(&trial.actions);
  EXPECT_THROW(run_le_once(builder, 4, 4, truncated, trial.trial_seed), Error);
}

}  // namespace
}  // namespace rts::sim
