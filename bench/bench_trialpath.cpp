// Trial-path throughput microbenchmarks (google-benchmark): the pooled
// exec::TrialWorkspace hot path against the seed's fresh-kernel-per-trial
// path, over the cells of the `paper-le` campaign preset.  This is the
// number the campaign engine's wall time is made of: a campaign is nothing
// but this loop sharded over workers.
//
//   bench_trialpath                # gbench tables: seed/fresh/pooled/batched
//   bench_trialpath --bench DIR    # also write DIR/BENCH_trialpath.json
//   bench_trialpath --check-trials N  # trials per cell for --bench (dflt 120)
//
// The --bench document records trials/sec for every path -- the
// reconstructed seed baseline, today's fresh-kernel path, the pooled
// workspace, and the batched SoA lockstep kernel (algo/batch.hpp; every
// paper-le cell is batch-eligible) -- plus the speedups, so BENCH_*.json
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
#include <memory>
#include <string>
#include <vector>

#include "algo/batch.hpp"
#include "algo/registry.hpp"
#include "campaign/presets.hpp"
#include "campaign/spec.hpp"
#include "exec/workspace.hpp"
#include "sim/adversary.hpp"
#include "sim/runner.hpp"
#include "support/rng.hpp"

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

/// Lane width for the batched SoA path: wide enough to amortize the bank
/// reset, well under kMaxBatchLanes so the partial-final-block case still
/// appears at paper-le's 150 trials/cell.
constexpr int kBatchLanes = 32;

bool batch_eligible(const campaign::CellSpec& cell) {
  return algo::batch_supported(cell.algorithm) &&
         algo::batch_sched(cell.adversary).has_value();
}

std::unique_ptr<sim::BatchStream> make_cell_batch_stream(
    const campaign::CellSpec& cell) {
  return algo::make_batch_stream(cell.algorithm, cell.adversary, cell.n,
                                 cell.k, kBatchLanes, cell.seed0,
                                 cell.step_limit);
}

/// The x87/SSE control-word round-trip the seed's context switch executed
/// (two switches per step); today's switch drops it, so the baseline
/// replays the exact instructions.
inline void seed_fp_control_roundtrip() {
#if defined(__x86_64__)
  std::uint32_t mxcsr;
  std::uint16_t fpcw;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpcw));
  asm volatile("ldmxcsr %0\n\tfldcw %1" ::"m"(mxcsr), "m"(fpcw));
#endif
}

/// The rejection-sampling limit division the seed's PrngSource::draw
/// recomputed on every scheduling decision (memoized today).
inline void seed_draw_limit_division(std::uint64_t arity) {
  volatile std::uint64_t limit = UINT64_MAX - UINT64_MAX % arity;
  (void)limit;
}

/// Faithful reconstruction of the *seed's* fresh-kernel trial loop, the
/// baseline this PR's acceptance is measured against: a fresh kernel,
/// processes, PRNGs, and algorithm build per trial (like today's fresh
/// path), plus the per-step costs the kernel used to pay before the hot-path
/// rework -- a heap-allocated runnable-pid vector per scheduling decision
/// (the old KernelView always copied one), an O(n) all-done scan per step,
/// the per-switch FP-control round-trip and per-draw limit division replayed
/// instruction for instruction, and an O(allocated-registers) touched() scan
/// per trial.  Built from public kernel APIs so it keeps compiling as the
/// library moves; EXPERIMENTS.md records that a directly measured build of
/// the seed commit runs slightly *slower* than this reconstruction (it also
/// lacked link-time optimization of the step path), so the reported speedup
/// is conservative.
sim::LeRunResult run_seed_baseline_once(const sim::LeBuilder& builder, int n,
                                        int k, sim::Adversary& adversary,
                                        std::uint64_t seed,
                                        sim::Kernel::Options options) {
  std::vector<sim::Outcome> outcomes(static_cast<std::size_t>(k),
                                     sim::Outcome::kUnknown);
  sim::Kernel kernel(options);
  // Seed: grant() filled a full OpRecord unconditionally; the observer is
  // the public-API stand-in that makes today's kernel do that work again.
  kernel.set_op_observer(
      [](const sim::OpRecord& record) { benchmark::DoNotOptimize(&record); });
  sim::BuiltLe le = builder(kernel, n);
  // Seed: SimMemory::alloc copied every register name into a fresh
  // std::string on every per-trial rebuild (names are interned now).
  for (sim::RegId reg = 0; reg < kernel.memory().allocated(); ++reg) {
    std::string name_copy(kernel.memory().slot(reg).name);
    benchmark::DoNotOptimize(name_copy.data());
  }
  for (int pid = 0; pid < k; ++pid) {
    auto rng = std::make_unique<support::PrngSource>(
        support::derive_seed(seed, static_cast<std::uint64_t>(pid)));
    auto* slot = &outcomes[static_cast<std::size_t>(pid)];
    kernel.add_process(
        [&le, slot](sim::Context& ctx) { *slot = le.elect(ctx); },
        std::move(rng));
  }
  kernel.start();
  bool completed = true;
  for (;;) {
    // Seed: every scheduling decision scanned all processes into a fresh
    // runnable vector; an empty one ended the run.
    std::vector<int> runnable;
    runnable.reserve(static_cast<std::size_t>(k));
    for (int pid = 0; pid < k; ++pid) {
      if (kernel.runnable(pid)) runnable.push_back(pid);
    }
    if (runnable.empty()) break;
    if (kernel.total_steps() >= options.step_limit) {
      completed = false;
      break;
    }
    benchmark::DoNotOptimize(runnable.data());
    seed_draw_limit_division(runnable.size());
    sim::KernelView view(kernel, adversary.clazz());
    const sim::Action action = adversary.next(view);
    if (action.kind == sim::Action::Kind::kStep) {
      seed_fp_control_roundtrip();  // announce switch
      kernel.grant(action.pid);
      seed_fp_control_roundtrip();  // resume switch
    } else {
      kernel.crash(action.pid);
    }
  }
  // Seed: touched() scanned every allocated slot.
  std::size_t touched = 0;
  for (sim::RegId reg = 0; reg < kernel.memory().allocated(); ++reg) {
    const sim::RegSlot& slot = kernel.memory().slot(reg);
    if (slot.reads > 0 || slot.writes > 0) ++touched;
  }
  benchmark::DoNotOptimize(touched);
  return sim::collect_le_result(kernel, n, k, outcomes,
                                le.declared_registers, completed);
}

sim::LeRunResult run_seed_baseline_trial(const sim::LeBuilder& builder, int n,
                                         int k,
                                         const sim::AdversaryFactory& factory,
                                         int trial, std::uint64_t seed0,
                                         sim::Kernel::Options options) {
  const std::uint64_t seed = sim::trial_seed(seed0, trial);
  auto adversary = factory(sim::adversary_seed(seed));
  return run_seed_baseline_once(builder, n, k, *adversary, seed, options);
}

void bm_seed_trial(benchmark::State& state, const campaign::CellSpec& cell) {
  const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
  const sim::AdversaryFactory adversary =
      algo::adversary_factory(cell.adversary);
  int trial = 0;
  for (auto _ : state) {
    const sim::LeRunResult r = run_seed_baseline_trial(
        builder, cell.n, cell.k, adversary, trial++ % cell.trials, cell.seed0,
        kernel_options_of(cell));
    benchmark::DoNotOptimize(r.total_steps);
  }
  state.SetItemsProcessed(state.iterations());
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
  // The executor's actual batched path: block-cached summaries through the
  // workspace, sequential trial access recomputing one block per
  // kBatchLanes trials.
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
  double seed_tps = 0.0;    // reconstructed seed fresh-kernel path
  double fresh_tps = 0.0;   // today's fresh-kernel path
  double pooled_tps = 0.0;
  double batched_tps = 0.0;  // SoA lockstep path; 0 = cell ineligible
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
        const exec::TrialSummary seed = sim::summarize_trial(
            run_seed_baseline_trial(builder, cell.n, cell.k, adversary,
                                    base + i, cell.seed0,
                                    kernel_options_of(cell)));
        require_identical(fresh[static_cast<std::size_t>(i)], seed, cell,
                          base + i);
      }
      const double secs =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (secs > 0.0) out.seed_tps = std::max(out.seed_tps, chunk / secs);
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
      // Same workspace object the scalar pooled pass used: the batch slot
      // pool is disjoint from the stream pool, exactly as in an executor
      // worker that mixes eligible and ineligible cells.
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
  double seed_sum = 0.0;
  double fresh_sum = 0.0;
  double pooled_sum = 0.0;
  double batched_sum = 0.0;  // over eligible cells only
  std::size_t batched_cells = 0;
  for (const campaign::CellSpec& cell : paper_le_cells()) {
    rows.push_back(measure_cell(cell, trials));
    // Harmonic aggregation: total time for one trial of every cell.
    seed_sum += 1.0 / rows.back().seed_tps;
    fresh_sum += 1.0 / rows.back().fresh_tps;
    pooled_sum += 1.0 / rows.back().pooled_tps;
    if (rows.back().batched_tps > 0.0) {
      batched_sum += 1.0 / rows.back().batched_tps;
      ++batched_cells;
    }
  }
  const double seed_tps = rows.size() / seed_sum;
  const double fresh_tps = rows.size() / fresh_sum;
  const double pooled_tps = rows.size() / pooled_sum;
  const double batched_tps =
      batched_cells > 0 ? batched_cells / batched_sum : 0.0;
  // The headline speedup is pooled-vs-seed: what the hot-path rework bought
  // over the baseline it replaced.  pooled-vs-fresh isolates the workspace
  // pooling alone; batched-vs-pooled isolates the SoA lockstep kernel on
  // the eligible cells (all of paper-le qualifies: uniform-random schedules
  // over batch-supported algorithms).
  const double speedup = pooled_tps / seed_tps;
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
               "{\"schema\":\"rts-trialpath-2\",\"name\":\"trialpath\","
               "\"preset\":\"paper-le\",\"spec_hash\":\"%016llx\","
               "\"trials_per_cell\":%d,\"batch_lanes\":%d,"
               "\"seed_trials_per_second\":%.6g,"
               "\"fresh_trials_per_second\":%.6g,"
               "\"pooled_trials_per_second\":%.6g,"
               "\"batched_trials_per_second\":%.6g,"
               "\"speedup\":%.4g,\"pooling_speedup\":%.4g,"
               "\"batch_speedup\":%.4g,\"cells\":[",
               static_cast<unsigned long long>(
                   campaign::spec_hash(paper_le_spec())),
               trials, kBatchLanes, seed_tps, fresh_tps, pooled_tps,
               batched_tps, speedup, pooling_speedup, batch_speedup);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CellThroughput& row = rows[i];
    std::fprintf(file,
                 "%s{\"algorithm\":\"%s\",\"k\":%d,"
                 "\"seed_trials_per_second\":%.6g,"
                 "\"fresh_trials_per_second\":%.6g,"
                 "\"pooled_trials_per_second\":%.6g,"
                 "\"batched_trials_per_second\":%.6g,"
                 "\"speedup\":%.4g,\"batch_speedup\":%.4g}",
                 i > 0 ? "," : "", algo::info(row.cell->algorithm).name,
                 row.cell->k, row.seed_tps, row.fresh_tps, row.pooled_tps,
                 row.batched_tps, row.pooled_tps / row.seed_tps,
                 row.batched_tps > 0.0 ? row.batched_tps / row.pooled_tps
                                       : 0.0);
  }
  std::fprintf(file, "]}\n");
  std::fclose(file);

  std::printf("\npaper-le trial throughput (%d trials/cell):\n", trials);
  for (const CellThroughput& row : rows) {
    std::printf(
        "  %-16s k=%-5d seed %9.0f/s   fresh %9.0f/s   pooled %9.0f/s"
        "   batched %9.0f/s   %5.2fx seed  %5.2fx batch\n",
        algo::info(row.cell->algorithm).name, row.cell->k, row.seed_tps,
        row.fresh_tps, row.pooled_tps, row.batched_tps,
        row.pooled_tps / row.seed_tps,
        row.batched_tps > 0.0 ? row.batched_tps / row.pooled_tps : 0.0);
  }
  std::printf(
      "  overall: seed %.0f/s, fresh %.0f/s, pooled %.0f/s, "
      "batched %.0f/s; pooled is %.2fx the seed path (%.2fx from pooling "
      "alone), batching adds %.2fx over pooled -> %s\n",
      seed_tps, fresh_tps, pooled_tps, batched_tps, speedup, pooling_speedup,
      batch_speedup, path.c_str());
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
      check_trials = std::atoi(argv[++i]);
      if (check_trials < 1) {
        std::fprintf(stderr,
                     "bench_trialpath: --check-trials needs a positive "
                     "integer\n");
        return 2;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());

  for (const campaign::CellSpec& cell : paper_le_cells()) {
    const std::string tag = std::string(algo::info(cell.algorithm).name) +
                            "/k=" + std::to_string(cell.k);
    benchmark::RegisterBenchmark(
        ("seed/" + tag).c_str(),
        [&cell](benchmark::State& state) { bm_seed_trial(state, cell); });
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
