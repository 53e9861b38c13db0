#include "campaign/hunt.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "algo/registry.hpp"
#include "exec/conformance.hpp"
#include "sim/adversaries.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "support/assert.hpp"

namespace rts::campaign {

namespace {

/// Records every trial of one sim cell the way the campaign executor's
/// --record path does, returning a self-contained cell trace plus the
/// per-trial results the hunt ranks.
sim::CellTrace record_cell(const CellSpec& cell, const std::string& campaign,
                           std::vector<sim::LeRunResult>* results) {
  const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
  const sim::AdversaryFactory factory =
      algo::adversary_factory(cell.adversary);
  sim::CellTrace trace;
  trace.campaign = campaign;
  trace.algorithm = algo::info(cell.algorithm).name;
  trace.adversary = algo::info(cell.adversary).name;
  trace.cell_index = static_cast<std::uint32_t>(cell.index);
  trace.n = static_cast<std::uint32_t>(cell.n);
  trace.k = static_cast<std::uint32_t>(cell.k);
  trace.seed0 = cell.seed0;
  trace.step_limit = cell.step_limit;
  trace.rmr = cell.rmr;
  sim::Kernel::Options kernel_options;
  kernel_options.step_limit = cell.step_limit;
  kernel_options.rmr_model = cell.rmr;
  for (int t = 0; t < cell.trials; ++t) {
    sim::TrialTrace trial;
    results->push_back(sim::record_trial_trace(builder, cell.n, cell.k,
                                               factory, t, cell.seed0,
                                               kernel_options, &trial));
    trace.trials.push_back(std::move(trial));
  }
  return trace;
}

std::string corpus_filename(const HuntedCell& hunted,
                            const std::string& family) {
  std::string name = hunted.campaign + "-" + hunted.algorithm + "-" +
                     hunted.adversary + "-k" + std::to_string(hunted.cell.k);
  // RMR cells get a model segment so a cc and a dsm cell of one grid cannot
  // collide on the same corpus file.
  if (hunted.cell.rmr != rmr::RmrModel::kNone) {
    name += std::string("-") + rmr::to_string(hunted.cell.rmr);
  }
  return name + "-" + family + ".rtst";
}

void json_entry(std::string& out, const HuntedCell& hunted) {
  std::ostringstream line;
  line << "    {\"file\":\"" << std::filesystem::path(hunted.file).filename().string()
       << "\",\"campaign\":\"" << hunted.campaign << "\",\"algorithm\":\""
       << hunted.algorithm << "\",\"adversary\":\"" << hunted.adversary
       << "\",\"n\":" << hunted.cell.n << ",\"k\":" << hunted.cell.k;
  if (hunted.cell.rmr != rmr::RmrModel::kNone) {
    line << ",\"rmr\":\"" << rmr::to_string(hunted.cell.rmr) << "\"";
  }
  line << ",\"predicate\":\"" << hunted.predicate
       << "\",\"worst_trial\":" << hunted.worst_trial
       << ",\"metric\":" << hunted.metric
       << ",\"original_actions\":" << hunted.stats.original_actions
       << ",\"minimized_actions\":" << hunted.stats.minimized_actions
       << ",\"evals\":" << hunted.stats.evals << "}";
  out += line.str();
}

/// Pulls `"key":<number>` out of a manifest line; -1 when absent.
long long scan_number(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(line.c_str() + at + needle.size());
}

/// Pulls `"key":"value"` out of a manifest line; empty when absent.
std::string scan_string(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return {};
  return line.substr(begin, end - begin);
}

}  // namespace

std::vector<HuntedCell> run_hunt(const CampaignSpec& spec,
                                 const std::string& out_dir,
                                 const HuntOptions& options) {
  const std::string problem = validate(spec);
  RTS_REQUIRE(problem.empty(), ("invalid campaign: " + problem).c_str());
  RTS_REQUIRE(!options.predicates.empty(), "hunt needs at least one predicate");
  for (std::size_t p = 0; p < options.predicates.size(); ++p) {
    const sim::PredicateSpec& predicate = options.predicates[p];
    RTS_REQUIRE(predicate.family != "divergence",
                "'divergence' is not huntable (it never ranks trials from "
                "one replay); minimize a recorded trace against it instead");
    for (std::size_t q = 0; q < p; ++q) {
      // Corpus filenames key on the family, so two specs of one family
      // would silently overwrite each other's trace while the manifest
      // lists both -- a corpus that fails its own conformance gate.
      RTS_REQUIRE(options.predicates[q].family != predicate.family,
                  ("duplicate predicate family '" + predicate.family +
                   "' in one hunt")
                      .c_str());
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  RTS_REQUIRE(!ec, ("cannot create corpus directory '" + out_dir +
                    "': " + ec.message())
                       .c_str());

  std::vector<HuntedCell> hunted;
  for (const CellSpec& cell : expand(spec)) {
    if (cell.backend != exec::Backend::kSim) {
      HuntedCell skipped;
      skipped.cell = cell;
      skipped.campaign = spec.name;
      skipped.algorithm = algo::info(cell.algorithm).name;
      skipped.adversary = algo::info(cell.adversary).name;
      skipped.note = "hw backend is unrecordable (the OS scheduler is the "
                     "adversary there)";
      hunted.push_back(std::move(skipped));
      continue;
    }
    std::vector<sim::LeRunResult> results;
    const sim::CellTrace trace = record_cell(cell, spec.name, &results);
    const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);

    for (const sim::PredicateSpec& predicate : options.predicates) {
      HuntedCell entry;
      entry.cell = cell;
      entry.campaign = spec.name;
      entry.algorithm = trace.algorithm;
      entry.adversary = trace.adversary;

      // Rank trials worst-first by the family metric (ties: lowest trial).
      int worst = -1;
      std::uint64_t worst_metric = 0;
      for (std::size_t t = 0; t < results.size(); ++t) {
        const std::uint64_t metric = sim::hunt_metric(predicate, results[t]);
        if (metric > worst_metric) {
          worst_metric = metric;
          worst = static_cast<int>(t);
        }
      }
      sim::PredicateSpec filled = predicate;
      if (!filled.threshold.has_value() &&
          sim::predicate_family_thresholded(filled.family)) {
        filled.threshold = worst_metric;
      }
      if (worst < 0 ||
          (filled.threshold.has_value() && worst_metric < *filled.threshold)) {
        entry.note = "predicate '" + predicate.family +
                     "' never reached on any trial";
        hunted.push_back(std::move(entry));
        continue;
      }
      entry.worst_trial = worst;
      entry.metric = worst_metric;

      const sim::TracePredicate trace_predicate = sim::make_predicate(filled);
      entry.predicate = trace_predicate.spec;
      sim::MinimizeResult minimized = sim::minimize_trial(
          builder, trace, static_cast<std::size_t>(worst), trace_predicate);
      entry.stats = minimized.stats;
      entry.file = out_dir + "/" + corpus_filename(entry, predicate.family);
      std::string error;
      RTS_REQUIRE(
          sim::write_cell_trace_file(entry.file, minimized.cell, &error),
          (entry.file + ": " + error).c_str());
      hunted.push_back(std::move(entry));
    }
  }
  return hunted;
}

void write_corpus_manifest(const std::string& path,
                           const std::vector<HuntedCell>& hunted) {
  std::string out = "{\n  \"schema\": \"rts-corpus-manifest-1\",\n";
  out += "  \"trace_format_version\": " +
         std::to_string(sim::kTraceFormatVersion) + ",\n";
  out += "  \"entries\": [\n";
  bool first = true;
  for (const HuntedCell& entry : hunted) {
    if (entry.file.empty()) continue;
    if (!first) out += ",\n";
    first = false;
    json_entry(out, entry);
  }
  out += "\n  ]\n}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  RTS_REQUIRE(file != nullptr, ("cannot write '" + path + "'").c_str());
  std::fwrite(out.data(), 1, out.size(), file);
  std::fclose(file);
}

int conform_directory(const std::string& dir, std::FILE* out) {
  int failures = 0;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& file : std::filesystem::directory_iterator(dir, ec)) {
    if (file.path().extension() == ".rtst") paths.push_back(file.path());
  }
  if (ec) {
    std::fprintf(out, "%s: cannot list directory: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  if (paths.empty()) {
    std::fprintf(out, "%s: no .rtst traces\n", dir.c_str());
    return 1;
  }
  std::sort(paths.begin(), paths.end());

  // Traces first: every file must replay bit-for-bit on every path.
  constexpr std::size_t kUnreadable = static_cast<std::size_t>(-1);
  std::vector<std::size_t> action_counts;  // by sorted-file order
  for (const std::string& path : paths) {
    sim::CellTrace cell;
    std::string error;
    if (!sim::read_cell_trace_file(path, &cell, &error)) {
      std::fprintf(out, "FAIL %s: %s\n", path.c_str(), error.c_str());
      ++failures;
      action_counts.push_back(kUnreadable);
      continue;
    }
    std::size_t actions = 0;
    for (const sim::TrialTrace& trial : cell.trials) {
      actions += trial.actions.size();
    }
    action_counts.push_back(actions);
    exec::ConformanceReport report;
    try {
      report = exec::check_cell(cell);
    } catch (const std::exception& fault) {
      // Not only rts::Error: an in-range header n can still exhaust memory
      // (std::bad_alloc), and that fails this trace, not the whole run.
      std::fprintf(out, "FAIL %s: %s\n", path.c_str(), fault.what());
      ++failures;
      continue;
    }
    if (!report.ok()) {
      std::fprintf(out, "FAIL %s: %s\n", path.c_str(),
                   report.mismatches.front().c_str());
      ++failures;
      continue;
    }
    std::fprintf(out,
                 "ok   %s  %s/%s n=%u k=%u trials=%d actions=%zu "
                 "paths=fresh:%d,pooled:%d,hw:%d\n",
                 path.c_str(), cell.algorithm.c_str(), cell.adversary.c_str(),
                 cell.n, cell.k, report.trials_checked, actions,
                 report.fresh_runs, report.pooled_runs, report.hw_runs);
  }

  // Then the corpus manifest's minimization claims, when one is present.
  const std::string manifest_path = dir + "/MANIFEST.json";
  std::ifstream manifest(manifest_path);
  std::set<std::string> listed;
  bool corpus_schema = false;
  if (manifest) {
    std::string line;
    while (std::getline(manifest, line)) {
      if (line.find("rts-corpus-manifest-1") != std::string::npos) {
        corpus_schema = true;
      }
      const std::string file = scan_string(line, "file");
      if (!corpus_schema || file.empty()) continue;
      listed.insert(file);
      const long long original = scan_number(line, "original_actions");
      const long long minimized = scan_number(line, "minimized_actions");
      // Match by filename: `dir` may carry a trailing slash or other
      // spelling differences from what directory_iterator yielded.
      const auto it =
          std::find_if(paths.begin(), paths.end(), [&file](const auto& path) {
            return std::filesystem::path(path).filename() == file;
          });
      if (it == paths.end()) {
        std::fprintf(out, "FAIL %s/%s: listed in MANIFEST.json but missing\n",
                     dir.c_str(), file.c_str());
        ++failures;
        continue;
      }
      const std::string& path = *it;
      const std::size_t actual =
          action_counts[static_cast<std::size_t>(it - paths.begin())];
      if (actual == kUnreadable) continue;  // already failed above
      if (minimized < 0 || original < 0) {
        std::fprintf(out,
                     "FAIL %s: malformed MANIFEST.json entry (missing "
                     "original_actions/minimized_actions)\n",
                     path.c_str());
        ++failures;
      } else if (actual != static_cast<std::size_t>(minimized)) {
        std::fprintf(out,
                     "FAIL %s: MANIFEST.json claims %lld actions, trace has "
                     "%zu\n",
                     path.c_str(), minimized, actual);
        ++failures;
      } else if (original <= minimized) {
        std::fprintf(out,
                     "FAIL %s: not strictly minimized (%lld -> %lld "
                     "actions)\n",
                     path.c_str(), original, minimized);
        ++failures;
      }
    }
  }
  // A corpus manifest must describe the whole directory: a stale or
  // hand-added trace would otherwise pass the gate with its minimization
  // claims unchecked.
  if (corpus_schema) {
    for (const std::string& path : paths) {
      const std::string name = std::filesystem::path(path).filename();
      if (listed.count(name) == 0) {
        std::fprintf(out, "FAIL %s: not listed in MANIFEST.json\n",
                     path.c_str());
        ++failures;
      }
    }
  }
  return failures;
}

}  // namespace rts::campaign
