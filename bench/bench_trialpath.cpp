// Trial-path throughput microbenchmarks (google-benchmark): the pooled
// exec::TrialWorkspace hot path and the step-machine engine against the
// fresh-kernel-per-trial path, over the cells of the `paper-le` campaign
// preset.  This is the number the campaign engine's wall time is made of:
// a campaign is nothing but this loop sharded over workers.
//
//   bench_trialpath                # gbench tables: fresh/pooled/batched
//   bench_trialpath --bench DIR    # also write DIR/BENCH_trialpath.json
//   bench_trialpath --check-trials N  # trials per cell for --bench (dflt 120)
//
// The --bench document records trials/sec for every path -- the
// fresh-kernel path, the pooled workspace, and the fiberless step-machine
// engine the executor runs eligible cells on (algo/batch.hpp; every
// paper-le cell is eligible) -- plus the speedups, so BENCH_*.json
// trajectory tracking covers the trial hot path itself alongside the
// campaign-level numbers rts_bench --bench emits.  The writer also
// cross-checks pooled- and batched-vs-fresh trial summaries and fails
// loudly on any divergence -- a perf number from a wrong result is worse
// than no number.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algo/batch.hpp"
#include "algo/registry.hpp"
#include "campaign/cli.hpp"
#include "campaign/presets.hpp"
#include "campaign/spec.hpp"
#include "exec/workspace.hpp"
#include "sim/runner.hpp"

namespace {

using namespace rts;
using Clock = std::chrono::steady_clock;

const campaign::CampaignSpec& paper_le_spec() {
  static const campaign::CampaignSpec spec = [] {
    const campaign::Preset* preset = campaign::find_preset("paper-le");
    if (preset == nullptr) {
      std::fprintf(stderr, "bench_trialpath: paper-le preset missing\n");
      std::exit(2);
    }
    return preset->spec;
  }();
  return spec;
}

const std::vector<campaign::CellSpec>& paper_le_cells() {
  static const std::vector<campaign::CellSpec> cells =
      campaign::expand(paper_le_spec());
  return cells;
}

sim::Kernel::Options kernel_options_of(const campaign::CellSpec& cell) {
  sim::Kernel::Options options;
  options.step_limit = cell.step_limit;
  return options;
}

/// Block size for the batched path: one trial per block, as the campaign
/// executor runs eligible cells (through run_le_trial_summary's machine
/// streams).  Longer blocks run their trials one after another, so they
/// only change how often the workspace cache refills.
constexpr int kBatchLanes = 1;

bool batch_eligible(const campaign::CellSpec& cell) {
  return algo::batch_supported(cell.algorithm) &&
         algo::batch_schedulable(cell.adversary);
}

std::unique_ptr<sim::BatchStream> make_cell_batch_stream(
    const campaign::CellSpec& cell) {
  return algo::make_batch_stream(cell.algorithm, cell.adversary, cell.n,
                                 cell.k, kBatchLanes, cell.seed0,
                                 cell.step_limit);
}

void bm_fresh_trial(benchmark::State& state, const campaign::CellSpec& cell) {
  const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
  const sim::AdversaryFactory adversary =
      algo::adversary_factory(cell.adversary);
  int trial = 0;
  for (auto _ : state) {
    const sim::LeRunResult r =
        sim::run_le_trial(builder, cell.n, cell.k, adversary,
                          trial++ % cell.trials, cell.seed0,
                          kernel_options_of(cell));
    benchmark::DoNotOptimize(r.total_steps);
  }
  state.SetItemsProcessed(state.iterations());
}

void bm_pooled_trial(benchmark::State& state, const campaign::CellSpec& cell) {
  const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
  const sim::AdversaryFactory adversary =
      algo::adversary_factory(cell.adversary);
  exec::TrialWorkspace workspace;
  int trial = 0;
  for (auto _ : state) {
    const sim::LeRunResult r = workspace.run_le_trial(
        static_cast<std::uint64_t>(cell.index), builder, cell.n, cell.k,
        adversary, trial++ % cell.trials, cell.seed0, kernel_options_of(cell));
    benchmark::DoNotOptimize(r.total_steps);
  }
  state.SetItemsProcessed(state.iterations());
}

void bm_batched_trial(benchmark::State& state,
                      const campaign::CellSpec& cell) {
  // The machines through the workspace's block cache, sequential trial
  // access recomputing one block per kBatchLanes trials: the engine the
  // executor's run_le_trial_summary picks for these cells.
  exec::TrialWorkspace workspace;
  const exec::BatchStreamFactory factory = [&cell] {
    return make_cell_batch_stream(cell);
  };
  int trial = 0;
  for (auto _ : state) {
    const exec::TrialSummary summary = workspace.run_le_batch_trial(
        static_cast<std::uint64_t>(cell.index), factory, kBatchLanes,
        trial++ % cell.trials, cell.trials);
    benchmark::DoNotOptimize(summary.total_steps);
  }
  state.SetItemsProcessed(state.iterations());
}

struct CellThroughput {
  const campaign::CellSpec* cell = nullptr;
  double fresh_tps = 0.0;
  double pooled_tps = 0.0;
  double batched_tps = 0.0;  // step-machine path; 0 = cell ineligible
};

/// Summaries must match field-for-field; the bench refuses to report a
/// speedup for a pooled path that drifted from the fresh one.
void require_identical(const exec::TrialSummary& fresh,
                       const exec::TrialSummary& pooled,
                       const campaign::CellSpec& cell, int trial) {
  const bool same = fresh.max_steps == pooled.max_steps &&
                    fresh.total_steps == pooled.total_steps &&
                    fresh.regs_touched == pooled.regs_touched &&
                    fresh.declared_registers == pooled.declared_registers &&
                    fresh.unfinished == pooled.unfinished &&
                    fresh.crash_free == pooled.crash_free &&
                    fresh.completed == pooled.completed &&
                    fresh.first_violation == pooled.first_violation;
  if (!same) {
    std::fprintf(stderr,
                 "bench_trialpath: pooled/fresh divergence at %s k=%d "
                 "trial %d -- refusing to report\n",
                 algo::info(cell.algorithm).name, cell.k, trial);
    std::exit(1);
  }
}

CellThroughput measure_cell(const campaign::CellSpec& cell, int trials) {
  const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
  const sim::AdversaryFactory adversary =
      algo::adversary_factory(cell.adversary);
  CellThroughput out;
  out.cell = &cell;

  // The three modes are measured *interleaved* in rounds, each mode scored
  // by its best round: background-load drift between whole sequential
  // passes would otherwise skew the ratios, which is exactly the number
  // this bench exists to track.  The pooled workspace persists across
  // rounds, so its one-time stream build lands in round 0 and the
  // max-across-rounds estimator reads the steady state.
  constexpr int kRounds = 4;
  const int chunk = std::max(1, trials / kRounds);
  exec::TrialWorkspace workspace;
  std::vector<exec::TrialSummary> fresh(static_cast<std::size_t>(chunk));
  for (int round = 0; round < kRounds; ++round) {
    const int base = round * chunk;
    {
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < chunk; ++i) {
        fresh[static_cast<std::size_t>(i)] = sim::summarize_trial(
            sim::run_le_trial(builder, cell.n, cell.k, adversary, base + i,
                              cell.seed0, kernel_options_of(cell)));
      }
      const double secs =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (secs > 0.0) out.fresh_tps = std::max(out.fresh_tps, chunk / secs);
    }
    {
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < chunk; ++i) {
        const exec::TrialSummary pooled = sim::summarize_trial(
            workspace.run_le_trial(static_cast<std::uint64_t>(cell.index),
                                   builder, cell.n, cell.k, adversary,
                                   base + i, cell.seed0,
                                   kernel_options_of(cell)));
        require_identical(fresh[static_cast<std::size_t>(i)], pooled, cell,
                          base + i);
      }
      const double secs =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (secs > 0.0) out.pooled_tps = std::max(out.pooled_tps, chunk / secs);
    }
    if (batch_eligible(cell)) {
      // Same workspace object the scalar pooled pass used: the block cache
      // is disjoint from the stream pool, so one key serves both.
      const exec::BatchStreamFactory factory = [&cell] {
        return make_cell_batch_stream(cell);
      };
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < chunk; ++i) {
        const exec::TrialSummary batched = workspace.run_le_batch_trial(
            static_cast<std::uint64_t>(cell.index), factory, kBatchLanes,
            base + i, trials);
        require_identical(fresh[static_cast<std::size_t>(i)], batched, cell,
                          base + i);
      }
      const double secs =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (secs > 0.0) {
        out.batched_tps = std::max(out.batched_tps, chunk / secs);
      }
    }
  }
  return out;
}

bool write_trialpath_bench(const std::string& dir, int trials) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_trialpath: cannot create '%s': %s\n",
                 dir.c_str(), ec.message().c_str());
    return false;
  }

  std::vector<CellThroughput> rows;
  double fresh_sum = 0.0;
  double pooled_sum = 0.0;
  double batched_sum = 0.0;  // over eligible cells only
  std::size_t batched_cells = 0;
  for (const campaign::CellSpec& cell : paper_le_cells()) {
    rows.push_back(measure_cell(cell, trials));
    // Harmonic aggregation: total time for one trial of every cell.
    fresh_sum += 1.0 / rows.back().fresh_tps;
    pooled_sum += 1.0 / rows.back().pooled_tps;
    if (rows.back().batched_tps > 0.0) {
      batched_sum += 1.0 / rows.back().batched_tps;
      ++batched_cells;
    }
  }
  const double fresh_tps = rows.size() / fresh_sum;
  const double pooled_tps = rows.size() / pooled_sum;
  const double batched_tps =
      batched_cells > 0 ? batched_cells / batched_sum : 0.0;
  // pooled-vs-fresh isolates the workspace pooling; batched-vs-pooled
  // isolates the step-machine engine on the eligible cells (all of
  // paper-le qualifies: uniform-random schedules over batch-supported
  // algorithms).
  const double pooling_speedup = pooled_tps / fresh_tps;
  const double batch_speedup =
      batched_tps > 0.0 ? batched_tps / pooled_tps : 0.0;

  const std::string path = dir + "/BENCH_trialpath.json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_trialpath: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(file,
               "{\"schema\":\"rts-trialpath-3\",\"name\":\"trialpath\","
               "\"preset\":\"paper-le\",\"spec_hash\":\"%016llx\","
               "\"trials_per_cell\":%d,\"batch_lanes\":%d,"
               "\"fresh_trials_per_second\":%.6g,"
               "\"pooled_trials_per_second\":%.6g,"
               "\"batched_trials_per_second\":%.6g,"
               "\"pooling_speedup\":%.4g,"
               "\"batch_speedup\":%.4g,\"cells\":[",
               static_cast<unsigned long long>(
                   campaign::spec_hash(paper_le_spec())),
               trials, kBatchLanes, fresh_tps, pooled_tps, batched_tps,
               pooling_speedup, batch_speedup);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CellThroughput& row = rows[i];
    std::fprintf(file,
                 "%s{\"algorithm\":\"%s\",\"k\":%d,"
                 "\"fresh_trials_per_second\":%.6g,"
                 "\"pooled_trials_per_second\":%.6g,"
                 "\"batched_trials_per_second\":%.6g,"
                 "\"batch_speedup\":%.4g}",
                 i > 0 ? "," : "", algo::info(row.cell->algorithm).name,
                 row.cell->k, row.fresh_tps, row.pooled_tps, row.batched_tps,
                 row.batched_tps > 0.0 ? row.batched_tps / row.pooled_tps
                                       : 0.0);
  }
  std::fprintf(file, "]}\n");
  std::fclose(file);

  std::printf("\npaper-le trial throughput (%d trials/cell):\n", trials);
  for (const CellThroughput& row : rows) {
    std::printf(
        "  %-16s k=%-5d fresh %9.0f/s   pooled %9.0f/s   batched %9.0f/s"
        "   %5.2fx batch\n",
        algo::info(row.cell->algorithm).name, row.cell->k, row.fresh_tps,
        row.pooled_tps, row.batched_tps,
        row.batched_tps > 0.0 ? row.batched_tps / row.pooled_tps : 0.0);
  }
  std::printf(
      "  overall: fresh %.0f/s, pooled %.0f/s, batched %.0f/s; pooling is "
      "%.2fx fresh, batching adds %.2fx over pooled -> %s\n",
      fresh_tps, pooled_tps, batched_tps, pooling_speedup, batch_speedup,
      path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_dir;
  int check_trials = 120;
  // Strip our flags before google-benchmark sees the argument vector.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench") == 0 && i + 1 < argc) {
      bench_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--check-trials") == 0 && i + 1 < argc) {
      const auto parsed = campaign::parse_integer_flag(
          "--check-trials", argv[++i], 1, std::numeric_limits<int>::max());
      if (!parsed) return 2;
      check_trials = static_cast<int>(*parsed);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());

  for (const campaign::CellSpec& cell : paper_le_cells()) {
    const std::string tag = std::string(algo::info(cell.algorithm).name) +
                            "/k=" + std::to_string(cell.k);
    benchmark::RegisterBenchmark(
        ("fresh/" + tag).c_str(),
        [&cell](benchmark::State& state) { bm_fresh_trial(state, cell); });
    benchmark::RegisterBenchmark(
        ("pooled/" + tag).c_str(),
        [&cell](benchmark::State& state) { bm_pooled_trial(state, cell); });
    if (batch_eligible(cell)) {
      benchmark::RegisterBenchmark(
          ("batched/" + tag).c_str(),
          [&cell](benchmark::State& state) { bm_batched_trial(state, cell); });
    }
  }

  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!bench_dir.empty() && !write_trialpath_bench(bench_dir, check_trials)) {
    return 1;
  }
  return 0;
}
