#include "campaign/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/hunt.hpp"
#include "campaign/presets.hpp"
#include "campaign/reporter.hpp"
#include "campaign/soak.hpp"
#include "fault/plan.hpp"
#include "fault/signal.hpp"
#include "sim/adversaries.hpp"
#include "sim/minimize.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"
#include "support/assert.hpp"

namespace rts::campaign {

std::optional<long long> parse_integer_flag(const char* flag,
                                            std::string_view text,
                                            long long min_value,
                                            long long max_value) {
  long long value = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc{} && ptr == last && value >= min_value &&
      value <= max_value) {
    return value;
  }
  std::fprintf(stderr,
               "rts_bench: %s expects an integer in [%lld, %lld], got '%.*s'\n",
               flag, min_value, max_value, static_cast<int>(text.size()),
               text.data());
  return std::nullopt;
}

std::optional<std::uint64_t> parse_u64_flag(const char* flag,
                                            std::string_view text,
                                            std::uint64_t min_value,
                                            std::uint64_t max_value) {
  std::uint64_t value = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc{} && ptr == last && value >= min_value &&
      value <= max_value) {
    return value;
  }
  std::fprintf(stderr,
               "rts_bench: %s expects an integer in [%llu, %llu], got '%.*s'\n",
               flag, static_cast<unsigned long long>(min_value),
               static_cast<unsigned long long>(max_value),
               static_cast<int>(text.size()), text.data());
  return std::nullopt;
}

std::optional<double> parse_double_flag(const char* flag, std::string_view text,
                                        double min_exclusive,
                                        double max_inclusive) {
  // strtod instead of from_chars: a finite-value parse of doubles that works
  // on every toolchain in the CI matrix.  The whole token must be consumed.
  const std::string copy(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (errno == 0 && end != copy.c_str() && *end == '\0' &&
      std::isfinite(value) && value > min_exclusive && value <= max_inclusive) {
    return value;
  }
  std::fprintf(stderr,
               "rts_bench: %s expects a finite number in (%g, %g], got "
               "'%.*s'\n",
               flag, min_exclusive, max_inclusive,
               static_cast<int>(text.size()), text.data());
  return std::nullopt;
}

/// What the command line asked for.  `given` lists the table rows the
/// command named, in argv order, for the mode check and the cross-flag
/// rules.
struct CliArgs {
  std::vector<const Preset*> presets;
  std::vector<algo::AlgorithmId> algos;
  std::vector<algo::AdversaryId> adversaries;
  std::vector<exec::Backend> backends;  // empty: keep each spec's own
  std::vector<rmr::RmrModel> rmrs;      // empty: keep each spec's own
  std::vector<int> ks;
  int fixed_n = 0;
  std::optional<int> trials;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> step_limit;
  int workers = 1;
  double time_budget = 0.0;
  ReportFormat format = ReportFormat::kTable;
  std::string json_path;
  std::string csv_path;
  std::string bench_dir;
  std::string record_dir;
  std::string replay_dir;
  std::string hunt_dir;
  std::string minimize_file;
  std::vector<std::string> conform_dirs;
  std::vector<sim::PredicateSpec> predicates;  // empty: max-steps
  int trial = 0;
  std::string out_path;
  double soak_seconds = 0.0;
  double rate = 0.0;
  int shards = 0;  // 0 = keep the soak spec's own (default 1)
  const SoakPreset* soak_preset = nullptr;
  std::vector<int> pin_cpus;
  fault::FaultPlan faults;  // an empty spec keeps the soak spec's own plan
  std::uint64_t deadline_us = 0;
  std::optional<int> retries;
  std::uint64_t shed_backlog = 0;
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  std::string resume_dir;
  bool progress = false;
  bool quiet = false;
  bool list = false;
  bool help = false;
  std::vector<const CliFlag*> given;
};

namespace {

// Upper bounds that keep every accepted value in range when it is
// converted to integer nanoseconds (or, for --soak x --rate, to a uint64
// arrival count): 1e9 s is ~31.7 years, and 1e18 ns fits in int64 with
// room left for a steady-clock time point.
constexpr double kMaxSeconds = 1e9;
constexpr double kMaxRate = 1e9;
constexpr std::uint64_t kMaxDeadlineUs = 1'000'000'000'000'000;
constexpr long long kIntMax = std::numeric_limits<int>::max();

struct ModeInfo {
  CliMode mode;
  const char* name;
  const char* usage;
};

constexpr ModeInfo kModes[] = {
    {kCampaignMode, "campaign",
     "--preset NAME[,NAME...] and/or --algos A[,A...], no mode flag"},
    {kHuntMode, "hunt", "--hunt DIR over a campaign's --preset/--algos grid"},
    {kMinimizeMode, "minimize", "--minimize FILE"},
    {kConformMode, "conform", "--conform DIR[,DIR...]"},
    {kSoakMode, "soak", "--soak S or --soak-preset P (hw backend)"},
};

std::vector<std::string> split_csv(std::string_view text) {
  std::vector<std::string> parts;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    parts.emplace_back(text.substr(0, comma));
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return parts;
}

template <typename T>
std::string closed_range(T lo, T hi) {
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

// ------------------------------------------------- flag value readers --
// Each returns the CliValue of one table row: how the row stores its value
// into CliArgs, and the accepted range --help prints.

CliValue on(bool CliArgs::*field) {
  return {[field](CliArgs& args, const char*, std::string_view) {
            args.*field = true;
            return true;
          },
          ""};
}

/// One value, read by `read` (std::nullopt after a diagnostic).
template <typename Field, typename Read>
CliValue one(Field CliArgs::*field, Read read, std::string range = "") {
  return {[=](CliArgs& args, const char* flag, std::string_view text) {
            auto parsed = read(flag, text);
            if (parsed) args.*field = std::move(*parsed);
            return parsed.has_value();
          },
          std::move(range)};
}

constexpr bool kLastWins = true;

/// A comma-separated list, each item read by `read`.  Repeating the flag
/// appends to the list, except with `last_wins`, where the last copy wins.
template <typename T, typename Read>
CliValue list(std::vector<T> CliArgs::*field, Read read,
              std::string range = "", bool last_wins = false) {
  return {[=](CliArgs& args, const char* flag, std::string_view text) {
            std::vector<T>& out = args.*field;
            if (last_wins) out.clear();
            for (const std::string& item : split_csv(text)) {
              std::optional<T> parsed = read(flag, item);
              if (!parsed) return false;
              out.push_back(std::move(*parsed));
            }
            return true;
          },
          std::move(range)};
}

std::optional<std::string> verbatim(const char*, std::string_view text) {
  return std::string(text);
}

auto int_in(long long lo, long long hi) {
  return [=](const char* flag, std::string_view text) -> std::optional<int> {
    const auto parsed = parse_integer_flag(flag, text, lo, hi);
    if (!parsed) return std::nullopt;
    return static_cast<int>(*parsed);
  };
}

/// A name `lookup` knows (it returns std::nullopt for any other);
/// `expected` lists the names.
template <typename Lookup>
auto name_in(Lookup lookup, const char* expected) {
  return [=](const char* flag, std::string_view text) {
    auto value = lookup(text);
    if (!value) {
      std::fprintf(stderr, "rts_bench: %s expects %s, got '%.*s'\n", flag,
                   expected, static_cast<int>(text.size()), text.data());
    }
    return value;
  };
}

std::optional<rmr::RmrModel> rmr_model(std::string_view text) {
  rmr::RmrModel model;
  if (!rmr::parse_rmr_model(text, &model)) return std::nullopt;
  return model;
}

/// A registry lookup that returns nullptr for an unknown name, as a
/// name_in lookup.
template <auto find>
auto found(std::string_view name) -> std::optional<decltype(find(name))> {
  const auto entry = find(name);
  if (entry == nullptr) return std::nullopt;
  return entry;
}

std::optional<fault::FaultPlan> fault_plan(const char*, std::string_view text) {
  std::string error;
  std::optional<fault::FaultPlan> plan = fault::FaultPlan::parse(text, &error);
  if (!plan) {
    std::fprintf(stderr, "rts_bench: bad --faults spec: %s\n", error.c_str());
  }
  return plan;
}

// ----------------------------------------------------------- the table --

constexpr unsigned kGrid = kCampaignMode | kHuntMode;  // shape a sim grid

std::vector<CliFlag> make_flag_table() {
  const auto ints = [](auto field, long long lo, long long hi) {
    return one(field, int_in(lo, hi), closed_range(lo, hi));
  };
  const auto u64s = [](auto field, std::uint64_t lo,
                       std::uint64_t hi = UINT64_MAX) {
    const auto read = [=](const char* flag, std::string_view text) {
      return parse_u64_flag(flag, text, lo, hi);
    };
    return one(field, read, closed_range(lo, hi));
  };
  // A finite double in (0, max].
  const auto positive = [](auto field, double max) {
    const auto read = [=](const char* flag, std::string_view text) {
      return parse_double_flag(flag, text, 0.0, max);
    };
    char range[32];
    std::snprintf(range, sizeof range, "(0, %g]", max);
    return one(field, read, range);
  };
  const auto path = [](auto field) { return one(field, verbatim); };
  return {
      {"--help", "-h", nullptr, on(&CliArgs::help), kAllModes,
       "print this help and exit"},
      {"--list", nullptr, nullptr, on(&CliArgs::list), kAllModes,
       "list presets, soak presets, algorithms, adversaries, backends and "
       "predicates, and exit"},
      {"--quiet", nullptr, nullptr, on(&CliArgs::quiet), kAllModes,
       "no banners, summaries or heartbeats"},
      {"--progress", nullptr, nullptr, on(&CliArgs::progress), kCampaignMode,
       "live progress line on stderr"},
      // The grid.
      {"--preset", nullptr, "NAME[,NAME...]",
       list(&CliArgs::presets,
            name_in(found<find_preset>, "a preset name (see --list)")),
       kGrid, "campaign presets to run (see --list)"},
      {"--algos", nullptr, "A[,A...]",
       list(&CliArgs::algos,
            name_in(algo::parse_algorithm, "an algorithm name (see --list)"),
            "", kLastWins),
       kGrid | kSoakMode,
       "algorithms of an ad-hoc grid or a soak (see --list)"},
      {"--adversaries", nullptr, "S[,S...]",
       list(&CliArgs::adversaries,
            name_in(algo::parse_adversary, "an adversary name (see --list)"),
            "", kLastWins),
       kGrid, "schedulers of an ad-hoc grid (default: random)"},
      {"--backend", "--backends", "B[,B...]",
       list(&CliArgs::backends, name_in(exec::parse_backend, "sim or hw"),
            "sim | hw"),
       kGrid, "execution backends (overrides the preset's)"},
      {"--rmr", nullptr, "M[,M...]",
       list(&CliArgs::rmrs, name_in(rmr_model, "none, cc, or dsm"),
            "none | cc | dsm"),
       kGrid,
       "RMR charging models (sim only; adds a grid axis and the RMR report "
       "columns)"},
      {"--ks", nullptr, "K[,K...]",
       list(&CliArgs::ks, int_in(1, sim::kMaxProcesses),
            closed_range(1, sim::kMaxProcesses)),
       kGrid | kSoakMode,
       "contention levels (overrides the preset's); a soak takes one"},
      {"--n", nullptr, "N", ints(&CliArgs::fixed_n, 1, sim::kMaxProcesses),
       kGrid | kSoakMode, "fixed object capacity (default: n = k)"},
      {"--trials", nullptr, "N", ints(&CliArgs::trials, 1, kIntMax), kGrid,
       "trials per cell (overrides the preset's)"},
      {"--seed", nullptr, "S", u64s(&CliArgs::seed, 0), kGrid | kSoakMode,
       "master seed (overrides the preset's)"},
      {"--step-limit", nullptr, "N", u64s(&CliArgs::step_limit, 1),
       kGrid | kSoakMode,
       "per-trial kernel step budget (hw: each participant's op budget)"},
      {"--workers", nullptr, "N", ints(&CliArgs::workers, 0, 4096),
       kCampaignMode, "worker threads (0 = all hardware threads; default 1)"},
      {"--time-budget", nullptr, "S",
       positive(&CliArgs::time_budget, kMaxSeconds), kCampaignMode,
       "stop claiming trials after S seconds (results are marked truncated)"},
      // Output.
      {"--format", nullptr, "F",
       one(&CliArgs::format, name_in(parse_format, "table, jsonl, or csv"),
           "table | jsonl | csv"),
       kCampaignMode, "stdout format (default table)"},
      {"--json", nullptr, "PATH", path(&CliArgs::json_path),
       kCampaignMode | kSoakMode, "also write JSONL to PATH ('-' = stdout)"},
      {"--csv", nullptr, "PATH", path(&CliArgs::csv_path), kCampaignMode,
       "also write CSV to PATH ('-' = stdout)"},
      {"--bench", nullptr, "DIR", path(&CliArgs::bench_dir), kCampaignMode,
       "write a BENCH_<name>.json trajectory summary per campaign into DIR"},
      // Schedule traces.
      {"--record", nullptr, "DIR", path(&CliArgs::record_dir), kCampaignMode,
       "record every sim trial's schedule into DIR/<campaign>/ (.rtst "
       "traces + manifest)"},
      {"--replay", nullptr, "DIR", path(&CliArgs::replay_dir), kCampaignMode,
       "re-drive sim trials from the traces recorded in DIR/<campaign>/, "
       "bit for bit"},
      {"--hunt", nullptr, "DIR", path(&CliArgs::hunt_dir), kHuntMode,
       "hunt worst-case schedules: record each sim cell, minimize its worst "
       "trial per --pred family, write DIR/*.rtst and a corpus "
       "MANIFEST.json"},
      {"--minimize", nullptr, "FILE", path(&CliArgs::minimize_file),
       kMinimizeMode, "delta-debug one trial of a recorded .rtst against "
                      "--pred"},
      {"--conform", nullptr, "DIR[,DIR...]",
       list(&CliArgs::conform_dirs, verbatim), kConformMode,
       "replay every .rtst in each DIR through fresh sim, pooled sim and "
       "scheduled hw, and check the corpus manifest's minimization claims"},
      {"--pred", nullptr, "P[,P...]",
       list(&CliArgs::predicates,
            name_in(sim::parse_predicate_spec, "a predicate (see --list)")),
       kHuntMode | kMinimizeMode,
       "predicates: a family (see --list) or family>=N; default max-steps, "
       "thresholds default to the worst or recorded value"},
      {"--trial", nullptr, "N", ints(&CliArgs::trial, 0, kIntMax),
       kMinimizeMode, "trial index to minimize (default 0)"},
      {"--out", nullptr, "PATH", path(&CliArgs::out_path), kMinimizeMode,
       "output file (default: FILE with a .min.rtst suffix)"},
      // Chaos and recovery.
      {"--faults", nullptr, "SPEC", one(&CliArgs::faults, fault_plan),
       kCampaignMode | kSoakMode,
       "seeded fault plan for hw participants and campaign workers, e.g. "
       "'stall:p=0.3,us=3000;noshow:p=0.1;die:p=0.001'"},
      {"--deadline-us", nullptr, "N",
       u64s(&CliArgs::deadline_us, 1, kMaxDeadlineUs),
       kCampaignMode | kSoakMode,
       "per-election deadline in microseconds; timed-out hw elections are "
       "cancelled and retried"},
      {"--retries", nullptr, "N", ints(&CliArgs::retries, 0, kIntMax),
       kCampaignMode | kSoakMode,
       "retries after a deadline cancellation (default 2, capped backoff)"},
      {"--checkpoint", nullptr, "DIR", path(&CliArgs::checkpoint_dir),
       kCampaignMode,
       "checkpoint completed sim cells into DIR/<campaign>/ (SIGKILL-safe)"},
      {"--checkpoint-every", nullptr, "N",
       ints(&CliArgs::checkpoint_every, 1, kIntMax), kCampaignMode,
       "flush the checkpoint every N completed cells (default 1)"},
      {"--resume", nullptr, "DIR", path(&CliArgs::resume_dir), kCampaignMode,
       "resume a checkpointed campaign: preload its finished cells and run "
       "the rest; the output bytes equal an uninterrupted run's"},
      // The open-loop soak.
      {"--soak", nullptr, "S", positive(&CliArgs::soak_seconds, kMaxSeconds),
       kSoakMode,
       "soak for S seconds: fire elections at --rate through persistent "
       "thread pools, heartbeats on stderr, report on stdout"},
      {"--soak-preset", nullptr, "P",
       one(&CliArgs::soak_preset,
           name_in(found<find_soak_preset>, "a soak preset name (see --list)")),
       kSoakMode,
       "named soak configuration (see --list); the other soak flags "
       "override it"},
      {"--rate", nullptr, "R", positive(&CliArgs::rate, kMaxRate), kSoakMode,
       "target election arrivals per second"},
      {"--shards", nullptr, "N", ints(&CliArgs::shards, 1, 1024), kSoakMode,
       "service shards: N election pools (k threads each) behind a "
       "least-backlog dispatcher"},
      {"--shed-backlog", nullptr, "N", u64s(&CliArgs::shed_backlog, 1),
       kSoakMode, "shed arrivals once the backlog exceeds N elections"},
      {"--pin", nullptr, "C[,C...]",
       list(&CliArgs::pin_cpus, int_in(0, 4095), closed_range(0, 4095)),
       kCampaignMode | kSoakMode,
       "pin participant i to cpu C[i % len] (soak and hw campaign cells)"},
  };
}

bool given(const CliArgs& args, std::string_view name) {
  return std::any_of(
      args.given.begin(), args.given.end(),
      [name](const CliFlag* flag) { return name == flag->name; });
}

const CliFlag* find_flag(std::string_view arg) {
  for (const CliFlag& flag : cli_flags()) {
    if (arg == flag.name || (flag.alias != nullptr && arg == flag.alias)) {
      return &flag;
    }
  }
  return nullptr;
}

/// Returns std::nullopt and prints a diagnostic on malformed input.
std::optional<CliArgs> parse_args(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const CliFlag* flag = find_flag(argv[i]);
    if (flag == nullptr) {
      std::fprintf(stderr, "rts_bench: unknown option '%s'\n", argv[i]);
      return std::nullopt;
    }
    std::string_view value;
    if (flag->metavar != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rts_bench: %s needs a value\n", flag->name);
        return std::nullopt;
      }
      value = argv[++i];
    }
    if (!flag->value.parse(args, flag->name, value)) return std::nullopt;
    args.given.push_back(flag);
  }
  return args;
}

CliMode mode_of(const CliArgs& args) {
  if (given(args, "--soak") || given(args, "--soak-preset")) return kSoakMode;
  if (given(args, "--conform")) return kConformMode;
  if (given(args, "--minimize")) return kMinimizeMode;
  if (given(args, "--hunt")) return kHuntMode;
  return kCampaignMode;
}

/// The cross-flag rules a mode set cannot express; nullptr when all hold.
const char* broken_rule(const CliArgs& args, CliMode mode) {
  const bool checkpoint = given(args, "--checkpoint");
  const bool resume = given(args, "--resume");
  const bool record = given(args, "--record");
  const bool replay = given(args, "--replay");
  if (record && replay) return "--record and --replay are mutually exclusive";
  if (checkpoint && resume) {
    return "use either --checkpoint DIR (fresh run) or --resume DIR "
           "(continue into the same directory), not both";
  }
  if ((checkpoint || resume) && (record || replay)) {
    return "--checkpoint/--resume cannot be combined with --record/--replay";
  }
  if (given(args, "--checkpoint-every") && !checkpoint && !resume) {
    return "--checkpoint-every needs --checkpoint or --resume";
  }
  if (mode == kSoakMode && args.ks.size() > 1) {
    return "soak mode takes exactly one --ks value";
  }
  if (mode == kMinimizeMode && args.predicates.size() > 1) {
    return "--minimize takes exactly one --pred";
  }
  return nullptr;
}

/// Prints `text` word-wrapped into the help's description column; `used`
/// is how many characters the current line already holds.
void print_described(std::FILE* out, std::size_t used, std::string_view text) {
  constexpr std::size_t kColumn = 28;
  constexpr std::size_t kWidth = 79 - kColumn;
  if (used >= kColumn) {
    std::fputc('\n', out);
    used = 0;
  }
  while (!text.empty()) {
    std::size_t take = text.size();
    if (take > kWidth) {
      take = text.rfind(' ', kWidth);
      if (take == std::string_view::npos || take == 0) take = kWidth;
    }
    std::fprintf(out, "%*s%.*s\n", static_cast<int>(kColumn - used), "",
                 static_cast<int>(take), text.data());
    text.remove_prefix(take);
    while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
    used = 0;
  }
}

std::string modes_text(unsigned modes) {
  if (modes == kAllModes) return "all";
  std::string text;
  for (const ModeInfo& mode : kModes) {
    if ((modes & mode.mode) == 0) continue;
    if (!text.empty()) text += ", ";
    text += mode.name;
  }
  return text;
}

void print_help(std::FILE* out) {
  std::fprintf(out,
               "rts_bench -- unified experiment-campaign driver\n"
               "\n"
               "usage: rts_bench --list | --help\n"
               "       rts_bench [MODE FLAG] [flags]\n"
               "\n"
               "modes (the mode flag picks one; a flag given outside the "
               "modes listed\nunder it is rejected):\n");
  for (const ModeInfo& mode : kModes) {
    std::fprintf(out, "  %-10s%s\n", mode.name, mode.usage);
  }
  std::fprintf(out, "\nflags:\n");
  for (const CliFlag& flag : cli_flags()) {
    std::string head = std::string("  ") + flag.name;
    if (flag.alias != nullptr) head += std::string(", ") + flag.alias;
    if (flag.metavar != nullptr) head += std::string(" ") + flag.metavar;
    std::fputs(head.c_str(), out);
    print_described(out, head.size(), flag.help);
    std::string details = "modes: " + modes_text(flag.modes);
    if (!flag.value.range.empty()) {
      details = "accepts " + flag.value.range + "; " + details;
    }
    print_described(out, 0, details);
  }
  std::fprintf(out,
               "\nSIGINT/SIGTERM stop campaign and soak runs gracefully: "
               "partial results are\nreported (marked interrupted), and "
               "campaigns checkpoint their completed cells\nfor --resume.\n");
}

void print_banner(const Preset& preset) {
  std::printf("\n######################################################\n");
  std::printf("# %s\n", preset.title);
  std::printf("# Paper claim: %s\n", preset.claim);
  std::printf("######################################################\n");
}

void print_list() {
  std::printf("presets:\n");
  for (const Preset& preset : all_presets()) {
    std::printf("  %-18s %s\n", preset.name, preset.title);
  }
  std::printf("\nsoak presets (--soak-preset; open-loop hw soak):\n");
  for (const SoakPreset& preset : all_soak_presets()) {
    std::printf("  %-18s %s\n", preset.name, preset.title);
  }
  std::printf("\nalgorithms:\n");
  for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
    const bool sim = algo::supports(algorithm.id, exec::Backend::kSim);
    const bool hw = algo::supports(algorithm.id, exec::Backend::kHw);
    const char* backends = sim && hw ? "sim+hw" : (sim ? "sim" : "hw");
    std::printf("  %-18s %-7s %-34s %s\n", algorithm.name, backends,
                algorithm.complexity, algorithm.description);
  }
  std::printf("\nadversaries (sim backend; hw cells use the os scheduler):\n");
  for (const algo::AdversaryInfo& adversary : algo::all_adversaries()) {
    // Class tag: the literature's adversary hierarchy slot, plus what the
    // scheduler may inject beyond grants.
    std::string tag = sim::to_string(adversary.clazz);
    if (adversary.crashes) tag += "+crash";
    if (adversary.aborts) tag += "+abort";
    std::printf("  %-18s %-22s %s\n", adversary.name, tag.c_str(),
                adversary.description);
  }
  std::printf("\nbackends:\n");
  std::printf("  %-18s %s\n", "sim",
              "adversarial single-threaded simulator (deterministic)");
  std::printf("  %-18s %s\n", "hw",
              "real threads on std::atomic registers (os scheduler)");
  std::printf("\npredicates (--hunt / --minimize; '*' takes >=N):\n");
  for (const sim::PredicateFamilyInfo& family : sim::predicate_families()) {
    std::printf("  %-18s%s %s\n", family.name,
                family.thresholded ? "*" : " ", family.description);
  }
}

/// Builds the list of campaign specs the invocation asks for: the named
/// presets, or one ad-hoc grid, with CLI overrides applied.
void collect_specs(const CliArgs& args, std::vector<CampaignSpec>* specs,
                   std::vector<const Preset*>* preset_of) {
  for (const Preset* preset : args.presets) {
    specs->push_back(preset->spec);
    preset_of->push_back(preset);
  }
  if (!args.algos.empty()) {
    CampaignSpec spec;
    spec.name = "adhoc";
    spec.algorithms = args.algos;
    spec.adversaries = args.adversaries;
    if (spec.adversaries.empty()) {
      spec.adversaries.push_back(algo::AdversaryId::kUniformRandom);
    }
    spec.ks = args.ks.empty() ? standard_contention_sweep() : args.ks;
    spec.fixed_n = args.fixed_n;
    specs->push_back(spec);
    preset_of->push_back(nullptr);
  }
  // Apply overrides uniformly.
  for (CampaignSpec& spec : *specs) {
    if (!args.backends.empty()) spec.backends = args.backends;
    if (!args.rmrs.empty()) spec.rmrs = args.rmrs;
    if (args.trials) spec.trials = *args.trials;
    if (args.seed) spec.seed = *args.seed;
    if (args.step_limit) spec.step_limit = *args.step_limit;
    if (!args.ks.empty()) spec.ks = args.ks;
    if (args.fixed_n > 0) spec.fixed_n = args.fixed_n;
  }
}

/// Writes the BENCH_<name>.json trajectory document for one campaign run.
bool write_bench_file(const std::string& dir, const CampaignResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "rts_bench: cannot create '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  const std::string path = dir + "/BENCH_" + result.spec.name + ".json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "rts_bench: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  report_bench_json(result, file);
  std::fclose(file);
  return true;
}

/// Opens PATH for writing; "-" means stdout (caller must not close it).
std::FILE* open_sink(const std::string& path, bool* needs_close) {
  if (path == "-") {
    *needs_close = false;
    return stdout;
  }
  *needs_close = true;
  return std::fopen(path.c_str(), "w");
}

/// A file sink shared by every campaign of the invocation (so several
/// presets append into one JSONL/CSV stream instead of clobbering it).
/// CSV is positional, so when any campaign of the invocation uses the
/// extended schema the sink forces it for all of them -- one consistent
/// column set per file.  (JSONL lines are self-describing; mixing is fine.)
class Sink {
 public:
  Sink(std::string path, ReportFormat format, bool force_extended,
       bool force_rmr)
      : path_(std::move(path)),
        format_(format),
        force_extended_(force_extended),
        force_rmr_(force_rmr) {}
  ~Sink() {
    if (file_ != nullptr && needs_close_) std::fclose(file_);
  }

  bool enabled() const { return !path_.empty(); }

  bool write(const CampaignResult& result) {
    if (!enabled()) return true;
    if (file_ == nullptr) {
      file_ = open_sink(path_, &needs_close_);
      if (file_ == nullptr) {
        std::fprintf(stderr, "rts_bench: cannot open '%s' for writing\n",
                     path_.c_str());
        return false;
      }
    }
    if (format_ == ReportFormat::kCsv) {
      report_csv(result, file_, force_extended_, force_rmr_);
    } else {
      report(result, format_, file_);
    }
    return true;
  }

 private:
  std::string path_;
  ReportFormat format_;
  bool force_extended_;
  bool force_rmr_ = false;
  std::FILE* file_ = nullptr;
  bool needs_close_ = false;
};

/// The --pred list, or max-steps when none was given.
std::vector<sim::PredicateSpec> predicates_of(const CliArgs& args) {
  if (!args.predicates.empty()) return args.predicates;
  return {*sim::parse_predicate_spec("max-steps")};
}

int run_conform(const std::vector<std::string>& dirs) {
  int failures = 0;
  for (const std::string& dir : dirs) {
    std::printf("== conformance: %s ==\n", dir.c_str());
    failures += conform_directory(dir, stdout);
  }
  if (failures > 0) {
    std::fprintf(stderr, "rts_bench: %d conformance failure%s\n", failures,
                 failures == 1 ? "" : "s");
    return 1;
  }
  return 0;
}

int run_minimize(const CliArgs& args) {
  sim::CellTrace cell;
  std::string error;
  if (!sim::read_cell_trace_file(args.minimize_file, &cell, &error)) {
    std::fprintf(stderr, "rts_bench: %s\n", error.c_str());
    return 1;
  }
  if (args.trial < 0 ||
      static_cast<std::size_t>(args.trial) >= cell.trials.size()) {
    std::fprintf(stderr, "rts_bench: --trial %d out of range (trace has %zu)\n",
                 args.trial, cell.trials.size());
    return 2;
  }
  const auto id = algo::parse_algorithm(cell.algorithm);
  if (!id || !algo::supports(*id, exec::Backend::kSim)) {
    std::fprintf(stderr, "rts_bench: trace algorithm '%s' has no sim factory\n",
                 cell.algorithm.c_str());
    return 1;
  }
  const sim::LeBuilder builder = algo::sim_builder(*id);
  const auto trial_index = static_cast<std::size_t>(args.trial);

  sim::PredicateSpec spec = predicates_of(args).front();
  try {
    if (!spec.threshold.has_value() &&
        sim::predicate_family_thresholded(spec.family)) {
      // Default threshold: preserve the recorded trial's own badness.  The
      // winner-steps metric is not stored in the digest, so replay once.
      const sim::TrialTrace& trial = cell.trials[trial_index];
      sim::ReplayAdversary adversary(&trial.actions);
      const sim::LeRunResult replayed =
          sim::run_le_once(builder, static_cast<int>(cell.n),
                           static_cast<int>(cell.k), adversary,
                           trial.trial_seed, sim::replay_options(cell));
      const std::uint64_t metric = sim::hunt_metric(spec, replayed);
      if (metric == 0) {
        // E.g. winner-steps on a winnerless trial: a >=0 threshold would
        // hold on every candidate and "minimize" to a degenerate schedule.
        std::fprintf(stderr,
                     "rts_bench: predicate '%s' never reached on trial %d "
                     "(recorded metric 0); give an explicit threshold\n",
                     spec.family.c_str(), args.trial);
        return 1;
      }
      spec.threshold = metric;
    }
    const sim::TracePredicate predicate = sim::make_predicate(spec);
    const sim::MinimizeResult minimized =
        sim::minimize_trial(builder, cell, trial_index, predicate);
    std::string out_path = args.out_path;
    if (out_path.empty()) {
      out_path = args.minimize_file;
      const std::string ext = ".rtst";
      if (out_path.size() > ext.size() &&
          out_path.compare(out_path.size() - ext.size(), ext.size(), ext) ==
              0) {
        out_path.resize(out_path.size() - ext.size());
      }
      out_path += ".min.rtst";
    }
    if (!sim::write_cell_trace_file(out_path, minimized.cell, &error)) {
      std::fprintf(stderr, "rts_bench: %s\n", error.c_str());
      return 1;
    }
    std::printf(
        "minimized %s trial %d against '%s': %zu -> %zu actions "
        "(%d candidate replays, %d passes)\nwrote %s\n",
        args.minimize_file.c_str(), args.trial, predicate.spec.c_str(),
        minimized.stats.original_actions, minimized.stats.minimized_actions,
        minimized.stats.evals, minimized.stats.passes, out_path.c_str());
  } catch (const std::exception& fault) {
    // Not only rts::Error: an in-range header n can still exhaust memory
    // (std::bad_alloc); report it like any other failed minimization.
    std::fprintf(stderr, "rts_bench: %s\n", fault.what());
    return 1;
  }
  return 0;
}

int run_hunt_mode(const CliArgs& args, const std::vector<CampaignSpec>& specs) {
  HuntOptions options;
  options.predicates = predicates_of(args);

  std::vector<HuntedCell> all;
  try {
    for (const CampaignSpec& spec : specs) {
      std::vector<HuntedCell> hunted = run_hunt(spec, args.hunt_dir, options);
      for (HuntedCell& entry : hunted) {
        if (!args.quiet) {
          if (entry.file.empty()) {
            std::printf("[hunt %s] cell %d %s/%s k=%d: skipped (%s)\n",
                        entry.campaign.c_str(), entry.cell.index,
                        entry.algorithm.c_str(), entry.adversary.c_str(),
                        entry.cell.k, entry.note.c_str());
          } else {
            std::printf(
                "[hunt %s] cell %d %s/%s k=%d: trial %d '%s'  %zu -> %zu "
                "actions (%d replays) -> %s\n",
                entry.campaign.c_str(), entry.cell.index,
                entry.algorithm.c_str(), entry.adversary.c_str(),
                entry.cell.k, entry.worst_trial, entry.predicate.c_str(),
                entry.stats.original_actions, entry.stats.minimized_actions,
                entry.stats.evals, entry.file.c_str());
          }
        }
        all.push_back(std::move(entry));
      }
    }
  } catch (const Error& fault) {
    std::fprintf(stderr, "rts_bench: %s\n", fault.what());
    return 1;
  }
  int written = 0;
  for (const HuntedCell& entry : all) written += entry.file.empty() ? 0 : 1;
  if (written == 0) {
    std::fprintf(stderr, "rts_bench: hunt produced no corpus traces\n");
    return 1;
  }
  write_corpus_manifest(args.hunt_dir + "/MANIFEST.json", all);
  if (!args.quiet) {
    std::printf("[hunt] %d trace%s + MANIFEST.json -> %s\n", written,
                written == 1 ? "" : "s", args.hunt_dir.c_str());
  }
  return 0;
}

int run_soak_mode(const CliArgs& args) {
  SoakSpec spec;
  if (args.soak_preset != nullptr) {
    spec = args.soak_preset->spec;
  } else {
    // Ad-hoc soak: borrow the smoke preset's algorithm pair and knobs as
    // defaults; --soak/--rate/--algos/... override below.
    spec = find_soak_preset("soak-smoke")->spec;
    spec.name = "soak";
  }
  if (args.soak_seconds > 0.0) spec.duration_seconds = args.soak_seconds;
  if (args.rate > 0.0) spec.rate = args.rate;
  for (const algo::AlgorithmId id : args.algos) {
    if (!algo::supports(id, exec::Backend::kHw)) {
      std::fprintf(stderr,
                   "rts_bench: algorithm '%s' has no hardware backend (soak "
                   "is hw-only)\n",
                   algo::info(id).name);
      return 2;
    }
  }
  if (!args.algos.empty()) spec.algorithms = args.algos;
  if (!args.ks.empty()) spec.k = args.ks.front();
  if (args.fixed_n > 0) spec.n = args.fixed_n;
  if (args.seed) spec.seed = *args.seed;
  if (args.step_limit) spec.step_limit = *args.step_limit;
  if (!args.pin_cpus.empty()) spec.pin_cpus = args.pin_cpus;
  if (!args.faults.spec.empty()) spec.faults = args.faults;
  if (args.deadline_us > 0) spec.deadline_ns = args.deadline_us * 1000;
  if (args.retries) spec.max_retries = *args.retries;
  if (args.shed_backlog > 0) spec.shed_backlog = args.shed_backlog;
  if (args.shards > 0) spec.shards = args.shards;
  fault::install_interrupt_handler();
  spec.cancel = fault::interrupt_flag();

  if (!args.quiet) {
    std::fprintf(stderr,
                 "[%s] open-loop soak: %zu algorithm%s, k=%d, target "
                 "%.0f elections/s for %.1fs\n",
                 spec.name.c_str(), spec.algorithms.size(),
                 spec.algorithms.size() == 1 ? "" : "s", spec.k, spec.rate,
                 spec.duration_seconds);
  }
  std::vector<SoakResult> results;
  try {
    results = run_soak(spec, args.quiet ? nullptr : stderr);
  } catch (const Error& error) {
    std::fprintf(stderr, "rts_bench: %s\n", error.what());
    return 1;
  }
  report_soak_table(spec, results, stdout);
  if (!args.json_path.empty()) {
    bool needs_close = false;
    std::FILE* sink = open_sink(args.json_path, &needs_close);
    if (sink == nullptr) {
      std::fprintf(stderr, "rts_bench: cannot open '%s' for writing\n",
                   args.json_path.c_str());
      return 1;
    }
    report_soak_jsonl(spec, results, sink);
    if (needs_close) std::fclose(sink);
  }
  std::uint64_t violations = 0;
  bool interrupted = false;
  for (const SoakResult& result : results) {
    violations += result.violations;
    interrupted = interrupted || result.interrupted;
  }
  if (violations > 0) {
    std::fprintf(stderr, "rts_bench: soak saw %llu violation%s\n",
                 static_cast<unsigned long long>(violations),
                 violations == 1 ? "" : "s");
    return 1;
  }
  if (interrupted) {
    std::fprintf(stderr,
                 "rts_bench: soak interrupted; partial results reported\n");
    return 130;
  }
  return 0;
}
}  // namespace

const char* cli_mode_name(CliMode mode) {
  for (const ModeInfo& info : kModes) {
    if (info.mode == mode) return info.name;
  }
  return "?";
}

std::span<const CliFlag> cli_flags() {
  static const std::vector<CliFlag> table = make_flag_table();
  return table;
}

int run_cli(int argc, char** argv) {
  const std::optional<CliArgs> parsed = parse_args(argc, argv);
  if (!parsed) {
    print_help(stderr);
    return 2;
  }
  const CliArgs& args = *parsed;
  if (args.help) {
    print_help(stdout);
    return 0;
  }
  if (args.list) {
    print_list();
    return 0;
  }
  if (given(args, "--hunt") + given(args, "--minimize") +
          given(args, "--conform") > 1) {
    std::fprintf(stderr,
                 "rts_bench: --hunt, --minimize, and --conform are mutually "
                 "exclusive\n");
    return 2;
  }
  const CliMode mode = mode_of(args);
  for (const CliFlag* flag : args.given) {
    if ((flag->modes & mode) == 0) {
      std::fprintf(stderr, "rts_bench: %s does not apply to %s\n", flag->name,
                   cli_mode_name(mode));
      return 2;
    }
  }
  if (const char* problem = broken_rule(args, mode)) {
    std::fprintf(stderr, "rts_bench: %s\n", problem);
    return 2;
  }
  const bool has_grid = !args.presets.empty() || !args.algos.empty();
  if ((mode == kConformMode && args.conform_dirs.empty()) ||
      ((mode == kCampaignMode || mode == kHuntMode) && !has_grid)) {
    std::fprintf(stderr, "rts_bench: nothing to run\n\n");
    print_help(stderr);
    return 2;
  }
  if (mode == kSoakMode) return run_soak_mode(args);
  if (mode == kConformMode) return run_conform(args.conform_dirs);
  if (mode == kMinimizeMode) return run_minimize(args);

  std::vector<CampaignSpec> specs;
  std::vector<const Preset*> preset_of;
  collect_specs(args, &specs, &preset_of);
  if (mode == kHuntMode) return run_hunt_mode(args, specs);

  bool any_extended = false;
  bool any_rmr = false;
  for (const CampaignSpec& spec : specs) {
    if (extended_schema(spec)) any_extended = true;
    if (rmr_schema(spec)) any_rmr = true;
  }
  Sink json_sink(args.json_path, ReportFormat::kJsonl, any_extended, any_rmr);
  Sink csv_sink(args.csv_path, ReportFormat::kCsv, any_extended, any_rmr);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CampaignSpec& spec = specs[i];
    const std::string problem = validate(spec);
    if (!problem.empty()) {
      std::fprintf(stderr, "rts_bench: invalid campaign '%s': %s\n",
                   spec.name.c_str(), problem.c_str());
      return 2;
    }

    ExecutorOptions options;
    options.workers = args.workers;
    options.time_budget_seconds = args.time_budget;
    options.hw_pin_cpus = args.pin_cpus;
    // Traces live in a per-campaign subdirectory, so several presets can
    // share one --record/--replay root without colliding cell files.
    if (!args.record_dir.empty()) {
      options.record_dir = args.record_dir + "/" + spec.name;
    }
    if (!args.replay_dir.empty()) {
      options.replay_dir = args.replay_dir + "/" + spec.name;
    }
    options.fault_plan = args.faults;
    options.hw_deadline_ns = args.deadline_us * 1000;
    if (args.retries) options.hw_max_retries = *args.retries;
    options.checkpoint_every = args.checkpoint_every;
    // Checkpoints live in a per-campaign subdirectory like traces do;
    // --resume points at the same root and keeps checkpointing into it.
    if (!args.checkpoint_dir.empty()) {
      options.checkpoint_dir = args.checkpoint_dir + "/" + spec.name;
    }
    if (!args.resume_dir.empty()) {
      options.checkpoint_dir = args.resume_dir + "/" + spec.name;
      options.resume = true;
    }
    fault::install_interrupt_handler();
    options.cancel = fault::interrupt_flag();
    // The fallback interrupt checkpoint nests <name>/ the same way
    // --checkpoint DIR does, so `--resume <name>.interrupt-ckpt` just works.
    const std::string interrupt_root = spec.name + ".interrupt-ckpt";
    if (options.checkpoint_dir.empty()) {
      options.interrupt_checkpoint_dir = interrupt_root + "/" + spec.name;
    }
    if (args.progress) options.on_progress = stderr_progress(spec.name.c_str());

    if (!args.quiet && args.format == ReportFormat::kTable &&
        preset_of[i] != nullptr) {
      print_banner(*preset_of[i]);
    }
    CampaignResult result;
    try {
      result = run_campaign(spec, options);
    } catch (const Error& error) {
      // Configuration-level failures (unreadable or spec-mismatched traces,
      // unwritable record directories) surface here; trial-level replay
      // divergence is reported per cell as errored trials instead.
      std::fprintf(stderr, "rts_bench: %s\n", error.what());
      return 1;
    }
    if (args.format == ReportFormat::kCsv) {
      report_csv(result, stdout, any_extended, any_rmr);
    } else {
      report(result, args.format, stdout);
    }
    if (!args.quiet) {
      std::fprintf(stderr,
                   "[%s] %zu cells, %d workers, %.2fs wall, "
                   "%llu simulated steps, %llu hw ops%s%s\n",
                   spec.name.c_str(), result.cells.size(),
                   result.workers_used, result.wall_seconds,
                   static_cast<unsigned long long>(result.sim_steps),
                   static_cast<unsigned long long>(result.hw_steps),
                   result.truncated ? "  [TRUNCATED]" : "",
                   result.interrupted ? "  [INTERRUPTED]" : "");
      if (result.faults.worker_deaths > 0) {
        std::fprintf(
            stderr, "[%s] %llu simulated worker death%s (die: clause)\n",
            spec.name.c_str(),
            static_cast<unsigned long long>(result.faults.worker_deaths),
            result.faults.worker_deaths == 1 ? "" : "s");
      }
      if (result.cells_resumed > 0) {
        std::fprintf(stderr, "[%s] resumed %llu cell%s from %s\n",
                     spec.name.c_str(),
                     static_cast<unsigned long long>(result.cells_resumed),
                     result.cells_resumed == 1 ? "" : "s",
                     options.checkpoint_dir.c_str());
      }
    }
    if (!json_sink.write(result)) return 1;
    if (!csv_sink.write(result)) return 1;
    if (!args.bench_dir.empty() && !write_bench_file(args.bench_dir, result)) {
      return 1;
    }
    if (result.interrupted) {
      // Partial jsonl/csv/table are flushed above; name the checkpoint the
      // run is resumable from and stop (remaining specs would start cold).
      const std::string resume_from = !options.checkpoint_dir.empty()
                                          ? args.checkpoint_dir.empty()
                                                ? args.resume_dir
                                                : args.checkpoint_dir
                                          : interrupt_root;
      std::fprintf(stderr,
                   "rts_bench: interrupted; partial results reported.  "
                   "Continue with: rts_bench ... --resume %s\n",
                   resume_from.c_str());
      return 130;
    }
  }
  return 0;
}

}  // namespace rts::campaign
