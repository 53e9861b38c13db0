// Experiment E10: hardware microbenchmark -- election wall time vs thread
// count on a persistent HwTrialPool (one pool per algorithm and thread
// count, built outside the timing loop, so each iteration is one pooled
// election), which needs google-benchmark's timing loop rather than a
// trial grid.  The grid half (mean shared-ops per election across all
// hw-capable algorithms vs the native atomic baseline) is the `hw-smoke`
// preset: `rts_bench --preset hw-smoke`.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>

#include "algo/registry.hpp"
#include "hw/harness.hpp"

namespace {

using namespace rts;

void bench_algorithm(benchmark::State& state, algo::AlgorithmId id) {
  const int k = static_cast<int>(state.range(0));
  hw::HwTrialPool pool(k);
  std::uint64_t seed = 1;
  std::uint64_t violations = 0;
  for (auto _ : state) {
    const hw::HwRunResult r = pool.run(id, k, seed++);
    if (!r.violations.empty()) ++violations;
    benchmark::DoNotOptimize(r.winners);
  }
  state.counters["violations"] =
      benchmark::Counter(static_cast<double>(violations));
  state.counters["threads"] = benchmark::Counter(static_cast<double>(k));
}

void register_benchmarks() {
  const algo::AlgorithmId ids[] = {
      algo::AlgorithmId::kNativeAtomic,   algo::AlgorithmId::kTournament,
      algo::AlgorithmId::kLogStarChain,   algo::AlgorithmId::kSiftCascade,
      algo::AlgorithmId::kRatRacePath,    algo::AlgorithmId::kCombinedLogStar,
  };
  const unsigned hw_threads = std::max(2u, std::thread::hardware_concurrency());
  for (const auto id : ids) {
    const std::string name = std::string("hw_le/") + algo::info(id).name;
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(),
        [id](benchmark::State& state) { bench_algorithm(state, id); });
    bench->Arg(1)->Arg(2)->Arg(static_cast<int>(hw_threads))
         ->Arg(static_cast<int>(2 * hw_threads))
         ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
