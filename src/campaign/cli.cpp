#include "campaign/cli.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "campaign/hunt.hpp"
#include "campaign/reporter.hpp"
#include "campaign/soak.hpp"
#include "fault/plan.hpp"
#include "fault/signal.hpp"
#include "sim/adversaries.hpp"
#include "sim/minimize.hpp"
#include "sim/trace.hpp"
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
                                            std::uint64_t min_value) {
  std::uint64_t value = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc{} && ptr == last && value >= min_value) return value;
  std::fprintf(stderr, "rts_bench: %s expects an integer >= %llu, got '%.*s'\n",
               flag, static_cast<unsigned long long>(min_value),
               static_cast<int>(text.size()), text.data());
  return std::nullopt;
}

std::optional<double> parse_double_flag(const char* flag, std::string_view text,
                                        double min_exclusive) {
  // strtod instead of from_chars: a finite-value parse of doubles that works
  // on every toolchain in the CI matrix.  The whole token must be consumed.
  const std::string copy(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (errno == 0 && end != copy.c_str() && *end == '\0' &&
      std::isfinite(value) && value > min_exclusive) {
    return value;
  }
  std::fprintf(stderr, "rts_bench: %s expects a finite number > %g, got "
               "'%.*s'\n",
               flag, min_exclusive, static_cast<int>(text.size()), text.data());
  return std::nullopt;
}

namespace {

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

void print_banner(const Preset& preset) {
  std::printf("\n######################################################\n");
  std::printf("# %s\n", preset.title);
  std::printf("# Paper claim: %s\n", preset.claim);
  std::printf("######################################################\n");
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "rts_bench -- unified experiment-campaign driver\n"
               "\n"
               "usage:\n"
               "  rts_bench --list\n"
               "  rts_bench --preset NAME[,NAME...] [options]\n"
               "  rts_bench --algos A[,A...] [--adversaries S[,S...]]\n"
               "            [--ks K[,K...]] [options]      (ad-hoc grid)\n"
               "\n"
               "options:\n"
               "  --backend B[,B...] execution backends: sim | hw "
               "(overrides preset)\n"
               "  --workers N       worker threads (0 = hardware, default 1)\n"
               "  --trials N        override trials per cell\n"
               "  --seed S          override campaign seed\n"
               "  --ks K[,K...]     override the contention sweep\n"
               "  --n N             fixed object capacity (default: n = k)\n"
               "  --rmr M[,M...]    RMR charging models: none | cc | dsm\n"
               "                    (sim only; adds a grid axis and the RMR\n"
               "                    report columns)\n"
               "  --format F        stdout format: table | jsonl | csv\n"
               "  --json PATH       also write JSONL to PATH ('-' = stdout)\n"
               "  --csv PATH        also write CSV to PATH ('-' = stdout)\n"
               "  --bench DIR       write a BENCH_<name>.json trajectory\n"
               "                    summary per campaign into DIR\n"
               "  --record DIR      record every sim trial's schedule into\n"
               "                    DIR/<campaign>/ (.rtst traces + manifest)\n"
               "  --replay DIR      re-drive sim trials from traces recorded\n"
               "                    in DIR/<campaign>/ (bit-for-bit replay)\n"
               "  --hunt DIR        hunt worst-case schedules: record each\n"
               "                    sim cell, minimize the worst trial per\n"
               "                    --pred family, write DIR/*.rtst + corpus\n"
               "                    MANIFEST.json\n"
               "  --minimize FILE   delta-debug one trial of a recorded\n"
               "                    .rtst against --pred; see --trial/--out\n"
               "  --conform DIR[,DIR...]\n"
               "                    replay every .rtst in DIR through the\n"
               "                    differential conformance harness (fresh\n"
               "                    sim, pooled sim, scheduled hw) and check\n"
               "                    corpus-manifest minimization claims\n"
               "  --pred P[,P...]   predicate specs for --hunt/--minimize:\n"
               "                    a family (max-steps, winner-steps,\n"
               "                    total-steps, violation, divergence) or\n"
               "                    family>=N; thresholds default to the\n"
               "                    worst/recorded value\n"
               "  --trial N         trial index for --minimize (default 0)\n"
               "  --out PATH        output path for --minimize (default:\n"
               "                    FILE with a .min.rtst suffix)\n"
               "  --time-budget S   stop claiming trials after S seconds\n"
               "  --step-limit N    per-trial kernel step budget\n"
               "  --progress        live progress line on stderr\n"
               "  --quiet           no banners\n"
               "\n"
               "chaos / recovery (see EXPERIMENTS.md, fault/plan.hpp):\n"
               "  --faults SPEC     seeded fault plan, e.g.\n"
               "                    'stall:p=0.3,us=3000;noshow:p=0.1;"
               "die:p=0.001'\n"
               "                    (hw participants + campaign workers)\n"
               "  --deadline-us N   per-election deadline; timed-out\n"
               "                    elections are cancelled and retried\n"
               "  --retries N       retry attempts after a deadline\n"
               "                    cancellation (default 2, capped backoff)\n"
               "  --shed-backlog N  soak only: shed arrivals once the\n"
               "                    backlog exceeds N elections\n"
               "  --checkpoint DIR  checkpoint completed sim cells into\n"
               "                    DIR/<campaign>/ (SIGKILL-safe)\n"
               "  --checkpoint-every N\n"
               "                    flush every N completed cells (default 1)\n"
               "  --resume DIR      resume a checkpointed campaign: preload\n"
               "                    finished cells, run the rest; final\n"
               "                    output bytes equal an uninterrupted run\n"
               "\n"
               "SIGINT/SIGTERM stop campaign and soak runs gracefully:\n"
               "partial results are reported (marked interrupted) and, for\n"
               "campaigns, completed cells are checkpointed for --resume.\n"
               "\n"
               "open-loop soak (hw backend; see EXPERIMENTS.md):\n"
               "  --soak S          soak for S seconds: fire elections at\n"
               "                    --rate through a persistent thread pool,\n"
               "                    heartbeats on stderr, report on stdout\n"
               "  --rate R          target election arrivals per second\n"
               "  --shards N        service shards: N persistent election\n"
               "                    pools (k threads each) behind a\n"
               "                    least-backlog dispatcher; merged report\n"
               "                    is exact, per-shard blocks in jsonl\n"
               "  --soak-preset P   named soak configuration (see --list);\n"
               "                    --soak/--rate/--algos/--ks/... override\n"
               "  --pin C[,C...]    pin participant i to cpu C[i %% len]; in\n"
               "                    soak and hw campaign cells (NUMA control)\n"
               "\n"
               "Sim aggregates are a pure function of the spec: output bytes\n"
               "are identical for any --workers value (absent --time-budget).\n"
               "Hw cells run the same seeded trial streams on real threads\n"
               "(one election at a time); their step counts carry genuine\n"
               "scheduling noise.\n");
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

struct CliArgs {
  std::vector<std::string> presets;
  std::vector<std::string> algos;
  std::vector<std::string> adversaries;
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
  std::vector<std::string> predicates;
  int trial = 0;
  std::string out_path;
  double soak_seconds = 0.0;
  double rate = 0.0;
  int shards = 0;  // 0 = keep the soak spec's own (default 1)
  std::string soak_preset;
  std::vector<int> pin_cpus;
  std::string faults_spec;
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
};

/// Returns std::nullopt and prints a diagnostic on malformed input.
std::optional<CliArgs> parse_args(int argc, char** argv) {
  CliArgs args;
  const auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "rts_bench: %s needs a value\n", flag);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = nullptr;
    if (arg == "--list") {
      args.list = true;
    } else if (arg == "--help" || arg == "-h") {
      args.help = true;
    } else if (arg == "--progress") {
      args.progress = true;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--preset") {
      if ((value = need_value(i, "--preset")) == nullptr) return std::nullopt;
      for (auto& name : split_csv(value)) args.presets.push_back(name);
    } else if (arg == "--algos") {
      if ((value = need_value(i, "--algos")) == nullptr) return std::nullopt;
      args.algos = split_csv(value);
    } else if (arg == "--adversaries") {
      if ((value = need_value(i, "--adversaries")) == nullptr) {
        return std::nullopt;
      }
      args.adversaries = split_csv(value);
    } else if (arg == "--backend" || arg == "--backends") {
      if ((value = need_value(i, "--backend")) == nullptr) {
        return std::nullopt;
      }
      for (const std::string& name : split_csv(value)) {
        const auto backend = exec::parse_backend(name);
        if (!backend) {
          std::fprintf(stderr,
                       "rts_bench: unknown backend '%s' "
                       "(expected sim or hw)\n",
                       name.c_str());
          return std::nullopt;
        }
        args.backends.push_back(*backend);
      }
    } else if (arg == "--rmr") {
      if ((value = need_value(i, "--rmr")) == nullptr) return std::nullopt;
      for (const std::string& name : split_csv(value)) {
        rmr::RmrModel model;
        if (!rmr::parse_rmr_model(name, &model)) {
          std::fprintf(stderr,
                       "rts_bench: unknown rmr model '%s' "
                       "(expected none, cc, or dsm)\n",
                       name.c_str());
          return std::nullopt;
        }
        args.rmrs.push_back(model);
      }
    } else if (arg == "--ks") {
      if ((value = need_value(i, "--ks")) == nullptr) return std::nullopt;
      for (auto& k : split_csv(value)) {
        const auto parsed = parse_integer_flag("--ks", k, 1, 1'000'000);
        if (!parsed) return std::nullopt;
        args.ks.push_back(static_cast<int>(*parsed));
      }
    } else if (arg == "--n") {
      if ((value = need_value(i, "--n")) == nullptr) return std::nullopt;
      const auto parsed = parse_integer_flag("--n", value, 1, 1'000'000);
      if (!parsed) return std::nullopt;
      args.fixed_n = static_cast<int>(*parsed);
    } else if (arg == "--trials") {
      if ((value = need_value(i, "--trials")) == nullptr) return std::nullopt;
      const auto parsed = parse_integer_flag(
          "--trials", value, 1, std::numeric_limits<int>::max());
      if (!parsed) return std::nullopt;
      args.trials = static_cast<int>(*parsed);
    } else if (arg == "--seed") {
      if ((value = need_value(i, "--seed")) == nullptr) return std::nullopt;
      const auto parsed = parse_u64_flag("--seed", value, 0);
      if (!parsed) return std::nullopt;
      args.seed = *parsed;
    } else if (arg == "--step-limit") {
      if ((value = need_value(i, "--step-limit")) == nullptr) {
        return std::nullopt;
      }
      const auto parsed = parse_u64_flag("--step-limit", value, 1);
      if (!parsed) return std::nullopt;
      args.step_limit = *parsed;
    } else if (arg == "--workers") {
      if ((value = need_value(i, "--workers")) == nullptr) return std::nullopt;
      const auto parsed = parse_integer_flag("--workers", value, 0, 4096);
      if (!parsed) return std::nullopt;
      args.workers = static_cast<int>(*parsed);
    } else if (arg == "--time-budget") {
      if ((value = need_value(i, "--time-budget")) == nullptr) {
        return std::nullopt;
      }
      const auto parsed = parse_double_flag("--time-budget", value, 0.0);
      if (!parsed) return std::nullopt;
      args.time_budget = *parsed;
    } else if (arg == "--format") {
      if ((value = need_value(i, "--format")) == nullptr) return std::nullopt;
      const auto format = parse_format(value);
      if (!format) {
        std::fprintf(stderr,
                     "rts_bench: unknown format '%s' "
                     "(expected table, jsonl, or csv)\n",
                     value);
        return std::nullopt;
      }
      args.format = *format;
    } else if (arg == "--json") {
      if ((value = need_value(i, "--json")) == nullptr) return std::nullopt;
      args.json_path = value;
    } else if (arg == "--csv") {
      if ((value = need_value(i, "--csv")) == nullptr) return std::nullopt;
      args.csv_path = value;
    } else if (arg == "--bench") {
      if ((value = need_value(i, "--bench")) == nullptr) return std::nullopt;
      args.bench_dir = value;
    } else if (arg == "--record") {
      if ((value = need_value(i, "--record")) == nullptr) return std::nullopt;
      args.record_dir = value;
    } else if (arg == "--replay") {
      if ((value = need_value(i, "--replay")) == nullptr) return std::nullopt;
      args.replay_dir = value;
    } else if (arg == "--hunt") {
      if ((value = need_value(i, "--hunt")) == nullptr) return std::nullopt;
      args.hunt_dir = value;
    } else if (arg == "--minimize") {
      if ((value = need_value(i, "--minimize")) == nullptr) {
        return std::nullopt;
      }
      args.minimize_file = value;
    } else if (arg == "--conform") {
      if ((value = need_value(i, "--conform")) == nullptr) return std::nullopt;
      for (auto& dir : split_csv(value)) args.conform_dirs.push_back(dir);
    } else if (arg == "--pred") {
      if ((value = need_value(i, "--pred")) == nullptr) return std::nullopt;
      for (auto& spec : split_csv(value)) args.predicates.push_back(spec);
    } else if (arg == "--trial") {
      if ((value = need_value(i, "--trial")) == nullptr) return std::nullopt;
      const auto parsed = parse_integer_flag("--trial", value, 0,
                                             std::numeric_limits<int>::max());
      if (!parsed) return std::nullopt;
      args.trial = static_cast<int>(*parsed);
    } else if (arg == "--soak") {
      if ((value = need_value(i, "--soak")) == nullptr) return std::nullopt;
      const auto parsed = parse_double_flag("--soak", value, 0.0);
      if (!parsed) return std::nullopt;
      args.soak_seconds = *parsed;
    } else if (arg == "--rate") {
      if ((value = need_value(i, "--rate")) == nullptr) return std::nullopt;
      const auto parsed = parse_double_flag("--rate", value, 0.0);
      if (!parsed) return std::nullopt;
      args.rate = *parsed;
    } else if (arg == "--shards") {
      if ((value = need_value(i, "--shards")) == nullptr) return std::nullopt;
      const auto parsed = parse_integer_flag("--shards", value, 1, 1024);
      if (!parsed) return std::nullopt;
      args.shards = static_cast<int>(*parsed);
    } else if (arg == "--soak-preset") {
      if ((value = need_value(i, "--soak-preset")) == nullptr) {
        return std::nullopt;
      }
      args.soak_preset = value;
    } else if (arg == "--pin") {
      if ((value = need_value(i, "--pin")) == nullptr) return std::nullopt;
      for (auto& cpu : split_csv(value)) {
        const auto parsed = parse_integer_flag("--pin", cpu, 0, 4095);
        if (!parsed) return std::nullopt;
        args.pin_cpus.push_back(static_cast<int>(*parsed));
      }
    } else if (arg == "--faults") {
      if ((value = need_value(i, "--faults")) == nullptr) return std::nullopt;
      std::string error;
      if (!fault::FaultPlan::parse(value, &error)) {
        std::fprintf(stderr, "rts_bench: bad --faults spec: %s\n",
                     error.c_str());
        return std::nullopt;
      }
      args.faults_spec = value;
    } else if (arg == "--deadline-us") {
      if ((value = need_value(i, "--deadline-us")) == nullptr) {
        return std::nullopt;
      }
      const auto parsed = parse_u64_flag("--deadline-us", value, 1);
      if (!parsed) return std::nullopt;
      args.deadline_us = *parsed;
    } else if (arg == "--retries") {
      if ((value = need_value(i, "--retries")) == nullptr) return std::nullopt;
      const auto parsed = parse_integer_flag(
          "--retries", value, 0, std::numeric_limits<int>::max());
      if (!parsed) return std::nullopt;
      args.retries = static_cast<int>(*parsed);
    } else if (arg == "--shed-backlog") {
      if ((value = need_value(i, "--shed-backlog")) == nullptr) {
        return std::nullopt;
      }
      const auto parsed = parse_u64_flag("--shed-backlog", value, 1);
      if (!parsed) return std::nullopt;
      args.shed_backlog = *parsed;
    } else if (arg == "--checkpoint") {
      if ((value = need_value(i, "--checkpoint")) == nullptr) {
        return std::nullopt;
      }
      args.checkpoint_dir = value;
    } else if (arg == "--checkpoint-every") {
      if ((value = need_value(i, "--checkpoint-every")) == nullptr) {
        return std::nullopt;
      }
      const auto parsed = parse_integer_flag(
          "--checkpoint-every", value, 1, std::numeric_limits<int>::max());
      if (!parsed) return std::nullopt;
      args.checkpoint_every = static_cast<int>(*parsed);
    } else if (arg == "--resume") {
      if ((value = need_value(i, "--resume")) == nullptr) return std::nullopt;
      args.resume_dir = value;
    } else if (arg == "--out") {
      if ((value = need_value(i, "--out")) == nullptr) return std::nullopt;
      args.out_path = value;
    } else {
      std::fprintf(stderr, "rts_bench: unknown option '%s'\n", argv[i]);
      return std::nullopt;
    }
  }
  return args;
}

/// Builds the list of campaign specs the invocation asks for: the named
/// presets, or one ad-hoc grid, with CLI overrides applied.
bool collect_specs(const CliArgs& args, std::vector<CampaignSpec>* specs,
                   std::vector<const Preset*>* preset_of) {
  for (const std::string& name : args.presets) {
    const Preset* preset = find_preset(name);
    if (preset == nullptr) {
      std::fprintf(stderr, "rts_bench: unknown preset '%s' (try --list)\n",
                   name.c_str());
      return false;
    }
    specs->push_back(preset->spec);
    preset_of->push_back(preset);
  }
  if (!args.algos.empty()) {
    CampaignSpec spec;
    spec.name = "adhoc";
    for (const std::string& name : args.algos) {
      const auto id = algo::parse_algorithm(name);
      if (!id) {
        std::fprintf(stderr, "rts_bench: unknown algorithm '%s' (try --list)\n",
                     name.c_str());
        return false;
      }
      spec.algorithms.push_back(*id);
    }
    const std::vector<std::string> adversaries =
        args.adversaries.empty() ? std::vector<std::string>{"random"}
                                 : args.adversaries;
    for (const std::string& name : adversaries) {
      const auto id = algo::parse_adversary(name);
      if (!id) {
        std::fprintf(stderr, "rts_bench: unknown adversary '%s' (try --list)\n",
                     name.c_str());
        return false;
      }
      spec.adversaries.push_back(*id);
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
  return true;
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

/// Parses the --pred list; `fallback` fills in when none was given.
/// std::nullopt + diagnostic on a malformed or unknown spec.
std::optional<std::vector<sim::PredicateSpec>> parse_predicates(
    const std::vector<std::string>& specs, const char* fallback) {
  std::vector<sim::PredicateSpec> parsed;
  if (specs.empty()) {
    parsed.push_back(*sim::parse_predicate_spec(fallback));
    return parsed;
  }
  for (const std::string& text : specs) {
    const auto spec = sim::parse_predicate_spec(text);
    if (!spec) {
      std::fprintf(stderr, "rts_bench: unknown predicate '%s' (try --list)\n",
                   text.c_str());
      return std::nullopt;
    }
    parsed.push_back(*spec);
  }
  return parsed;
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
  const auto predicates = parse_predicates(args.predicates, "max-steps");
  if (!predicates) return 2;
  if (predicates->size() != 1) {
    std::fprintf(stderr, "rts_bench: --minimize takes exactly one --pred\n");
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

  sim::PredicateSpec spec = predicates->front();
  try {
    if (!spec.threshold.has_value() &&
        sim::predicate_family_thresholded(spec.family)) {
      // Default threshold: preserve the recorded trial's own badness.  The
      // winner-steps metric is not stored in the digest, so replay once.
      const sim::TrialTrace& trial = cell.trials[trial_index];
      sim::ReplayAdversary adversary(&trial.actions);
      sim::Kernel::Options options;
      if (cell.step_limit > 0) options.step_limit = cell.step_limit;
      const sim::LeRunResult replayed =
          sim::run_le_once(builder, static_cast<int>(cell.n),
                           static_cast<int>(cell.k), adversary,
                           trial.trial_seed, options);
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
  } catch (const Error& fault) {
    std::fprintf(stderr, "rts_bench: %s\n", fault.what());
    return 1;
  }
  return 0;
}

int run_hunt_mode(const CliArgs& args, const std::vector<CampaignSpec>& specs) {
  const auto predicates = parse_predicates(args.predicates, "max-steps");
  if (!predicates) return 2;
  HuntOptions options;
  options.predicates = *predicates;

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
  if (!args.soak_preset.empty()) {
    const SoakPreset* preset = find_soak_preset(args.soak_preset);
    if (preset == nullptr) {
      std::fprintf(stderr, "rts_bench: unknown soak preset '%s' (try --list)\n",
                   args.soak_preset.c_str());
      return 2;
    }
    spec = preset->spec;
  } else {
    // Ad-hoc soak: borrow the smoke preset's algorithm pair and knobs as
    // defaults; --soak/--rate/--algos/... override below.
    spec = find_soak_preset("soak-smoke")->spec;
    spec.name = "soak";
  }
  if (args.soak_seconds > 0.0) spec.duration_seconds = args.soak_seconds;
  if (args.rate > 0.0) spec.rate = args.rate;
  if (!args.algos.empty()) {
    spec.algorithms.clear();
    for (const std::string& name : args.algos) {
      const auto id = algo::parse_algorithm(name);
      if (!id) {
        std::fprintf(stderr, "rts_bench: unknown algorithm '%s' (try --list)\n",
                     name.c_str());
        return 2;
      }
      if (!algo::supports(*id, exec::Backend::kHw)) {
        std::fprintf(stderr,
                     "rts_bench: algorithm '%s' has no hardware backend "
                     "(soak is hw-only)\n",
                     name.c_str());
        return 2;
      }
      spec.algorithms.push_back(*id);
    }
  }
  if (!args.ks.empty()) {
    if (args.ks.size() != 1) {
      std::fprintf(stderr,
                   "rts_bench: soak mode takes exactly one --ks value\n");
      return 2;
    }
    spec.k = args.ks.front();
  }
  if (args.fixed_n > 0) spec.n = args.fixed_n;
  if (args.seed) spec.seed = *args.seed;
  if (args.step_limit) spec.step_limit = *args.step_limit;
  if (!args.pin_cpus.empty()) spec.pin_cpus = args.pin_cpus;
  if (!args.faults_spec.empty()) {
    spec.faults = *fault::FaultPlan::parse(args.faults_spec, nullptr);
  }
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

CampaignResult run_preset(std::string_view name,
                          const ExecutorOptions& options) {
  const Preset* preset = find_preset(name);
  RTS_REQUIRE(preset != nullptr, "unknown campaign preset");
  print_banner(*preset);
  CampaignResult result = run_campaign(preset->spec, options);
  report_table(result, stdout);
  return result;
}

int run_cli(int argc, char** argv) {
  const std::optional<CliArgs> parsed = parse_args(argc, argv);
  if (!parsed) {
    print_usage(stderr);
    return 2;
  }
  const CliArgs& args = *parsed;
  if (args.help) {
    print_usage(stdout);
    return 0;
  }
  if (args.list) {
    print_list();
    return 0;
  }
  // Soak mode: its own driver, mutually exclusive with the campaign grid
  // and every trace-tooling mode.
  const bool soak = args.soak_seconds > 0.0 || !args.soak_preset.empty();
  if (soak) {
    if (!args.presets.empty() || !args.conform_dirs.empty() ||
        !args.minimize_file.empty() || !args.hunt_dir.empty() ||
        !args.record_dir.empty() || !args.replay_dir.empty() ||
        !args.adversaries.empty()) {
      std::fprintf(stderr,
                   "rts_bench: --soak/--soak-preset cannot be combined with "
                   "--preset/--hunt/--minimize/--conform/--record/--replay/"
                   "--adversaries (soak is an open-loop hw driver; use "
                   "--soak-preset for canned configurations)\n");
      return 2;
    }
    if (!args.checkpoint_dir.empty() || !args.resume_dir.empty()) {
      std::fprintf(stderr,
                   "rts_bench: --checkpoint/--resume only apply to campaign "
                   "runs (a soak is a live service, not a resumable grid)\n");
      return 2;
    }
    return run_soak_mode(args);
  }
  if (args.rate > 0.0) {
    std::fprintf(stderr, "rts_bench: --rate only applies to --soak\n");
    return 2;
  }
  if (args.shed_backlog > 0) {
    std::fprintf(stderr, "rts_bench: --shed-backlog only applies to --soak\n");
    return 2;
  }
  if (args.shards > 0) {
    std::fprintf(stderr, "rts_bench: --shards only applies to --soak\n");
    return 2;
  }
  if (!args.checkpoint_dir.empty() && !args.resume_dir.empty()) {
    std::fprintf(stderr,
                 "rts_bench: use either --checkpoint DIR (fresh run) or "
                 "--resume DIR (continue into the same directory), not "
                 "both\n");
    return 2;
  }
  if ((!args.checkpoint_dir.empty() || !args.resume_dir.empty()) &&
      (!args.record_dir.empty() || !args.replay_dir.empty())) {
    std::fprintf(stderr,
                 "rts_bench: --checkpoint/--resume cannot be combined with "
                 "--record/--replay\n");
    return 2;
  }
  // Trace-tooling modes: mutually exclusive, with their satellite flags
  // rejected outside them instead of silently ignored.
  const int modes = (!args.conform_dirs.empty() ? 1 : 0) +
                    (!args.minimize_file.empty() ? 1 : 0) +
                    (!args.hunt_dir.empty() ? 1 : 0);
  if (modes > 1) {
    std::fprintf(stderr,
                 "rts_bench: --hunt, --minimize, and --conform are mutually "
                 "exclusive\n");
    return 2;
  }
  if (modes == 0 &&
      (!args.predicates.empty() || args.trial != 0 || !args.out_path.empty())) {
    std::fprintf(stderr,
                 "rts_bench: --pred/--trial/--out only apply to --hunt and "
                 "--minimize\n");
    return 2;
  }
  if (!args.conform_dirs.empty() &&
      (!args.predicates.empty() || args.trial != 0 ||
       !args.out_path.empty())) {
    std::fprintf(stderr,
                 "rts_bench: --conform takes no --pred/--trial/--out\n");
    return 2;
  }
  if (!args.hunt_dir.empty() && (args.trial != 0 || !args.out_path.empty())) {
    std::fprintf(stderr, "rts_bench: --trial/--out only apply to --minimize\n");
    return 2;
  }
  if (modes > 0 && (!args.record_dir.empty() || !args.replay_dir.empty())) {
    std::fprintf(stderr,
                 "rts_bench: --record/--replay cannot be combined with "
                 "--hunt/--minimize/--conform (a hunt records its own "
                 "traces)\n");
    return 2;
  }
  if ((!args.conform_dirs.empty() || !args.minimize_file.empty()) &&
      (!args.presets.empty() || !args.algos.empty())) {
    std::fprintf(stderr,
                 "rts_bench: --conform/--minimize work on trace files and "
                 "take no --preset/--algos\n");
    return 2;
  }
  if (!args.conform_dirs.empty()) return run_conform(args.conform_dirs);
  if (!args.minimize_file.empty()) return run_minimize(args);
  if (args.presets.empty() && args.algos.empty()) {
    std::fprintf(stderr, "rts_bench: nothing to run\n\n");
    print_usage(stderr);
    return 2;
  }
  if (!args.record_dir.empty() && !args.replay_dir.empty()) {
    std::fprintf(stderr,
                 "rts_bench: --record and --replay are mutually exclusive\n");
    return 2;
  }

  std::vector<CampaignSpec> specs;
  std::vector<const Preset*> preset_of;
  if (!collect_specs(args, &specs, &preset_of)) return 2;
  if (!args.hunt_dir.empty()) return run_hunt_mode(args, specs);

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
    if (!args.faults_spec.empty()) {
      options.fault_plan = *fault::FaultPlan::parse(args.faults_spec, nullptr);
    }
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
