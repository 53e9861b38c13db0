// Tests for the schedule minimizer (sim/minimize.hpp), the worst-case hunt
// (campaign/hunt.hpp), and the checked-in corpus under tests/corpus/:
//
//  * predicate-spec parsing and the prefix replay convention,
//  * the core ddmin properties -- the minimized schedule still satisfies
//    its predicate, is 1-minimal (removing any single action breaks it),
//    and minimization is idempotent (re-minimizing returns identical
//    bytes),
//  * corrupted / divergent / predicate-violating inputs are rejected
//    loudly, never "minimized" into something unrelated,
//  * a hunt end-to-end writes a conforming corpus directory, and the
//    checked-in tests/corpus/ conforms bit-for-bit with its manifest's
//    minimization claims intact,
//  * a trace whose replay exhausts memory fails --conform and --minimize
//    with a diagnostic instead of terminating the process.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "campaign/cli.hpp"
#include "campaign/hunt.hpp"
#include "exec/conformance.hpp"
#include "sim/adversaries.hpp"
#include "sim/minimize.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"

// The sanitizers reserve terabytes of shadow address space up front, so a
// process under an address-space cap cannot run them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RTS_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RTS_SHADOW_MEMORY 1
#endif
#endif

namespace rts::sim {
namespace {

std::string test_data(const char* relative) {
  return (std::filesystem::path(RTS_TEST_DATA_DIR) / relative).string();
}

std::string corpus_dir() { return test_data("corpus"); }

/// Records one (algorithm, adversary) stream the way the hunt does.
CellTrace record_cell(algo::AlgorithmId algorithm, algo::AdversaryId adversary,
                      int n, int k, int trials, std::uint64_t seed0) {
  const LeBuilder builder = algo::sim_builder(algorithm);
  const AdversaryFactory factory = algo::adversary_factory(adversary);
  CellTrace cell;
  cell.campaign = "test";
  cell.algorithm = algo::info(algorithm).name;
  cell.adversary = algo::info(adversary).name;
  cell.n = static_cast<std::uint32_t>(n);
  cell.k = static_cast<std::uint32_t>(k);
  cell.seed0 = seed0;
  cell.step_limit = Kernel::Options{}.step_limit;
  for (int t = 0; t < trials; ++t) {
    TrialTrace trial;
    record_trial_trace(builder, n, k, factory, t, seed0, Kernel::Options{},
                       &trial);
    cell.trials.push_back(std::move(trial));
  }
  return cell;
}

bool candidate_satisfies(const LeBuilder& builder, const CellTrace& cell,
                         const TrialTrace& trial,
                         const std::vector<Action>& actions,
                         const TracePredicate& predicate) {
  const std::optional<LeRunResult> result = replay_schedule_prefix(
      builder, static_cast<int>(cell.n), static_cast<int>(cell.k), actions,
      trial.trial_seed);
  if (!result) return false;
  CandidateRun run;
  run.cell = &cell;
  run.trial = &trial;
  run.actions = &actions;
  run.result = &*result;
  return predicate.holds(run);
}

TEST(PredicateSpec, ParsesFamiliesThresholdsAndRejectsMalformedSpecs) {
  auto spec = parse_predicate_spec("max-steps>=120");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->family, "max-steps");
  ASSERT_TRUE(spec->threshold.has_value());
  EXPECT_EQ(*spec->threshold, 120u);
  EXPECT_EQ(make_predicate(*spec).spec, "max-steps>=120");

  spec = parse_predicate_spec("winner-steps");
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(spec->threshold.has_value());
  EXPECT_THROW(make_predicate(*spec), Error);  // threshold family needs one

  spec = parse_predicate_spec("violation");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(make_predicate(*spec).spec, "violation");

  EXPECT_FALSE(parse_predicate_spec("violation>=3").has_value());
  EXPECT_FALSE(parse_predicate_spec("max-steps>=").has_value());
  EXPECT_FALSE(parse_predicate_spec("max-steps>=12x").has_value());
  EXPECT_FALSE(parse_predicate_spec("no-such-predicate").has_value());

  // Every catalogued family parses bare.
  for (const PredicateFamilyInfo& family : predicate_families()) {
    EXPECT_TRUE(parse_predicate_spec(family.name).has_value()) << family.name;
  }
  EXPECT_THROW(
      hunt_metric(PredicateSpec{"divergence", std::nullopt}, LeRunResult{}),
      Error);
}

TEST(ReplayPrefix, ReplaysRecordingsAndStarvesShortenedSchedules) {
  const CellTrace cell = record_cell(algo::AlgorithmId::kLogStarChain,
                                     algo::AdversaryId::kUniformRandom, 6, 6,
                                     1, /*seed0=*/17);
  const LeBuilder builder = algo::sim_builder(algo::AlgorithmId::kLogStarChain);
  const TrialTrace& trial = cell.trials[0];

  // The full recorded schedule replays to its recorded digest.
  const std::optional<LeRunResult> full =
      replay_schedule_prefix(builder, 6, 6, trial.actions, trial.trial_seed);
  ASSERT_TRUE(full.has_value());
  EXPECT_TRUE(replay_mismatch(trial, *full).empty())
      << replay_mismatch(trial, *full);

  // A strict prefix starves the rest instead of erroring.
  std::vector<Action> half(trial.actions.begin(),
                           trial.actions.begin() +
                               static_cast<std::ptrdiff_t>(
                                   trial.actions.size() / 2));
  const std::optional<LeRunResult> prefix =
      replay_schedule_prefix(builder, 6, 6, half, trial.trial_seed);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_FALSE(prefix->completed);
  EXPECT_GT(prefix->unfinished, 0);
  EXPECT_EQ(prefix->total_steps, schedule_step_budget(half));

  // A grant-free schedule is degenerate, and a grant to a crashed pid is
  // not a well-formed schedule.
  EXPECT_FALSE(replay_schedule_prefix(builder, 6, 6, {}, trial.trial_seed)
                   .has_value());
  std::vector<Action> crashed = {Action::crash(0), Action::step(0)};
  EXPECT_FALSE(
      replay_schedule_prefix(builder, 6, 6, crashed, trial.trial_seed)
          .has_value());
}

TEST(Minimize, ResultSatisfiesPredicateIsOneMinimalAndConforms) {
  const CellTrace cell = record_cell(algo::AlgorithmId::kRatRacePath,
                                     algo::AdversaryId::kUniformRandom, 8, 8,
                                     3, /*seed0=*/23);
  const LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kRatRacePath);
  const TracePredicate predicate =
      pred_max_steps_at_least(cell.trials[1].max_steps);

  const MinimizeResult minimized = minimize_trial(builder, cell, 1, predicate);
  const TrialTrace& trial = minimized.cell.trials.at(0);
  EXPECT_EQ(minimized.stats.original_actions, cell.trials[1].actions.size());
  EXPECT_EQ(minimized.stats.minimized_actions, trial.actions.size());
  EXPECT_LE(trial.actions.size(), cell.trials[1].actions.size());
  EXPECT_EQ(minimized.cell.step_limit, schedule_step_budget(trial.actions));
  EXPECT_EQ(minimized.cell.algorithm, cell.algorithm);
  EXPECT_EQ(trial.trial_seed, cell.trials[1].trial_seed);

  // The predicate still holds on the minimized schedule.
  EXPECT_TRUE(candidate_satisfies(builder, minimized.cell, trial,
                                  trial.actions, predicate));

  // 1-minimality: dropping any single remaining action breaks the
  // predicate (or the schedule itself).
  for (std::size_t drop = 0; drop < trial.actions.size(); ++drop) {
    std::vector<Action> candidate = trial.actions;
    candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_FALSE(candidate_satisfies(builder, minimized.cell, trial,
                                     candidate, predicate))
        << "action " << drop << " was removable";
  }

  // The emitted cell is an ordinary trace: all three conformance paths
  // replay it bit for bit.
  const exec::ConformanceReport report = exec::check_cell(minimized.cell);
  EXPECT_TRUE(report.ok())
      << (report.mismatches.empty() ? "" : report.mismatches.front());
  EXPECT_EQ(report.hw_runs, 1);
}

TEST(Minimize, IsIdempotent) {
  const CellTrace cell = record_cell(algo::AlgorithmId::kCombinedSift,
                                     algo::AdversaryId::kUniformRandom, 6, 6,
                                     1, /*seed0=*/31);
  const LeBuilder builder =
      algo::sim_builder(algo::AlgorithmId::kCombinedSift);
  const TracePredicate predicate =
      pred_max_steps_at_least(cell.trials[0].max_steps);

  const MinimizeResult once = minimize_trial(builder, cell, 0, predicate);
  const MinimizeResult twice =
      minimize_trial(builder, once.cell, 0, predicate);
  EXPECT_EQ(twice.stats.original_actions, twice.stats.minimized_actions);
  EXPECT_EQ(encode_cell_trace(once.cell), encode_cell_trace(twice.cell));
}

TEST(Minimize, StrictlyRemovesWorkIrrelevantToTheWinner) {
  // Under the sequential scheduler pid 0 elects itself solo and every later
  // grant belongs to losers; against winner-steps the minimal schedule is
  // exactly the winner's own grants -- a deterministic strict reduction.
  const CellTrace cell = record_cell(algo::AlgorithmId::kLogStarChain,
                                     algo::AdversaryId::kSequential, 5, 5, 1,
                                     /*seed0=*/7);
  const LeBuilder builder = algo::sim_builder(algo::AlgorithmId::kLogStarChain);
  const std::optional<LeRunResult> recorded = replay_schedule_prefix(
      builder, 5, 5, cell.trials[0].actions, cell.trials[0].trial_seed);
  ASSERT_TRUE(recorded.has_value());
  ASSERT_EQ(winner_of(*recorded), 0);
  const std::uint64_t winner_steps = recorded->steps[0];
  ASSERT_LT(winner_steps, cell.trials[0].actions.size());

  const MinimizeResult minimized = minimize_trial(
      builder, cell, 0, pred_winner_steps_at_least(winner_steps));
  EXPECT_LT(minimized.stats.minimized_actions,
            minimized.stats.original_actions);
  EXPECT_EQ(minimized.stats.minimized_actions, winner_steps);
  for (const Action& action : minimized.cell.trials[0].actions) {
    EXPECT_EQ(action.pid, 0);
    EXPECT_EQ(action.kind, Action::Kind::kStep);
  }
}

TEST(Minimize, RejectsCorruptedDivergentAndUnsatisfiedInputs) {
  const CellTrace cell = record_cell(algo::AlgorithmId::kLogStarChain,
                                     algo::AdversaryId::kUniformRandom, 5, 5,
                                     1, /*seed0=*/3);
  const LeBuilder builder = algo::sim_builder(algo::AlgorithmId::kLogStarChain);
  const TracePredicate predicate =
      pred_max_steps_at_least(cell.trials[0].max_steps);

  // A falsified digest: the trace no longer reproduces what it recorded.
  {
    CellTrace tampered = cell;
    tampered.trials[0].total_steps += 1;
    EXPECT_THROW(minimize_trial(builder, tampered, 0, predicate), Error);
  }
  // A truncated schedule: the standard replay diverges (exhausts).
  {
    CellTrace tampered = cell;
    tampered.trials[0].actions.resize(tampered.trials[0].actions.size() / 2);
    EXPECT_THROW(minimize_trial(builder, tampered, 0, predicate), Error);
  }
  // A predicate the input does not satisfy.
  EXPECT_THROW(minimize_trial(builder, cell, 0,
                              pred_max_steps_at_least(
                                  cell.trials[0].max_steps + 1000)),
               Error);
  // An out-of-range trial index.
  EXPECT_THROW(minimize_trial(builder, cell, 7, predicate), Error);
}

TEST(Hunt, EndToEndWritesAConformingCorpusDirectory) {
  const std::string dir = ::testing::TempDir() + "rts-hunt-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  campaign::CampaignSpec spec;
  spec.name = "hunt-test";
  spec.algorithms = {algo::AlgorithmId::kLogStarChain,
                     algo::AlgorithmId::kRatRacePath};
  spec.adversaries = {algo::AdversaryId::kGeNeutralizer};
  spec.ks = {6};
  spec.trials = 4;
  spec.seed = 99;

  campaign::HuntOptions options;
  options.predicates = {*parse_predicate_spec("max-steps"),
                        *parse_predicate_spec("winner-steps")};
  const std::vector<campaign::HuntedCell> hunted =
      campaign::run_hunt(spec, dir, options);
  ASSERT_EQ(hunted.size(), 4u);  // 2 algorithms x 2 predicates
  for (const campaign::HuntedCell& entry : hunted) {
    EXPECT_FALSE(entry.file.empty()) << entry.note;
    EXPECT_TRUE(std::filesystem::exists(entry.file)) << entry.file;
    EXPECT_LE(entry.stats.minimized_actions, entry.stats.original_actions);
  }
  campaign::write_corpus_manifest(dir + "/MANIFEST.json", hunted);

  // The directory passes the same gate CI runs over tests/corpus/.
  EXPECT_EQ(campaign::conform_directory(dir, stdout), 0);

  // The divergence family is refused as a hunt axis.
  options.predicates = {*parse_predicate_spec("divergence")};
  EXPECT_THROW(campaign::run_hunt(spec, dir, options), Error);

  std::filesystem::remove_all(dir);
}

TEST(Corpus, CheckedInCorpusConformsWithManifestClaims) {
  // The acceptance gate: every checked-in worst-case trace replays
  // bit-for-bit through fresh sim, pooled sim, and the scheduled hw drive,
  // and the manifest's strict-minimization claims hold.
  EXPECT_EQ(campaign::conform_directory(corpus_dir(), stdout), 0);

  // Breadth: the corpus spans enough of the worst-case landscape to be a
  // regression net (>= 6 traces, >= 2 algorithms, >= 2 predicates).
  std::ifstream manifest(corpus_dir() + "/MANIFEST.json");
  ASSERT_TRUE(manifest.is_open());
  std::set<std::string> algorithms;
  std::set<std::string> families;
  int entries = 0;
  std::string line;
  const auto scan = [&line](const std::string& key) -> std::string {
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) return {};
    const std::size_t begin = at + needle.size();
    return line.substr(begin, line.find('"', begin) - begin);
  };
  while (std::getline(manifest, line)) {
    const std::string file = scan("file");
    if (file.empty()) continue;
    ++entries;
    algorithms.insert(scan("algorithm"));
    const std::string predicate = scan("predicate");
    families.insert(predicate.substr(0, predicate.find(">=")));
    EXPECT_TRUE(std::filesystem::exists(corpus_dir() + "/" + file)) << file;
  }
  EXPECT_GE(entries, 6);
  EXPECT_GE(algorithms.size(), 2u);
  EXPECT_GE(families.size(), 2u);
}

/// The death-test child: under a 2 GB address-space cap, runs --conform
/// over `dir` and --minimize on `trace`.  Returns 0 only when conform
/// counted one failure and minimize exited 1; each bit of a nonzero code
/// names the command that misbehaved.
int conform_and_minimize_capped(const std::string& dir,
                                const std::string& trace) {
  constexpr rlim_t kCap = rlim_t{2} << 30;
  const rlimit cap{kCap, kCap};
  if (setrlimit(RLIMIT_AS, &cap) != 0) return 4;
  const int failures = campaign::conform_directory(dir, std::tmpfile());
  std::vector<std::string> args = {"rts_bench", "--minimize", trace,
                                   "--trial",   "0",          "--out",
                                   dir + "/min.rtst"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int code =
      campaign::run_cli(static_cast<int>(args.size()), argv.data());
  return (failures == 1 ? 0 : 1) | (code == 1 ? 0 : 2);
}

TEST(OutOfMemory, ConformAndMinimizeFailTheTraceInsteadOfTerminating) {
#ifdef RTS_SHADOW_MEMORY
  GTEST_SKIP() << "sanitizer shadow memory does not fit a 2 GB address cap";
#endif
  // tests/golden/cell-0000.rtst (combined-sift, k=5) with its header n
  // raised to 10^6, inside the decoder's bound, and resealed by the
  // encoder.  Building the object for that n exceeds the child's address
  // space, so both commands meet std::bad_alloc.
  CellTrace cell;
  std::string error;
  ASSERT_TRUE(read_cell_trace_file(test_data("golden/cell-0000.rtst"), &cell,
                                   &error))
      << error;
  cell.n = 1'000'000;
  const std::string dir =
      ::testing::TempDir() + "rts-oom-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string trace = dir + "/cell-0000.rtst";
  ASSERT_TRUE(write_cell_trace_file(trace, cell, &error)) << error;
  EXPECT_EXIT(std::_Exit(conform_and_minimize_capped(dir, trace)),
              ::testing::ExitedWithCode(0), "");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rts::sim
