// Simulator performance microbenchmarks (google-benchmark): the cost of a
// context switch, of one simulated shared-memory step, and of a full
// leader election at various contentions.  These numbers justify the
// hand-rolled x86-64 context switch (fiber/fcontext_x86_64.S): per-step
// cost must be tens of nanoseconds for bounded-exhaustive model checking
// (millions of executions) to be a routine unit test.
#include <benchmark/benchmark.h>

#include <memory>

#include "algo/le2.hpp"
#include "algo/registry.hpp"
#include "algo/sim_platform.hpp"
#include "fiber/fiber.hpp"
#include "sim/adversaries.hpp"
#include "sim/kernel.hpp"
#include "sim/model_check.hpp"
#include "sim/runner.hpp"
#include "support/rng.hpp"

namespace {

using namespace rts;

void BM_ContextSwitch(benchmark::State& state) {
  fiber::ExecutionContext main_ctx;
  bool stop = false;
  fiber::Fiber* fib_ptr = nullptr;
  fiber::Fiber fib([&] {
    while (!stop) fiber::switch_context(*fib_ptr, main_ctx);
  });
  fib_ptr = &fib;
  fib.set_return_to(&main_ctx);
  for (auto _ : state) {
    fiber::switch_context(main_ctx, fib);  // two switches per iteration
  }
  stop = true;
  fiber::switch_context(main_ctx, fib);
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ContextSwitch);

void BM_SimStep(benchmark::State& state) {
  // One process ping-ponging reads: measures announce + grant + resume.
  sim::Kernel::Options options;
  options.step_limit = UINT64_MAX;
  sim::Kernel kernel(options);
  const sim::RegId reg = kernel.memory().alloc("r");
  kernel.add_process(
      [reg](sim::Context& ctx) {
        for (;;) ctx.read(reg);
      },
      std::make_unique<support::PrngSource>(1));
  kernel.start();
  for (auto _ : state) {
    kernel.grant(0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimStep);

void BM_FullElection(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto builder = algo::sim_builder(algo::AlgorithmId::kLogStarChain);
  std::uint64_t seed = 0;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    sim::UniformRandomAdversary adversary(++seed);
    const auto r = sim::run_le_once(builder, k, k, adversary, seed);
    steps += r.total_steps;
    benchmark::DoNotOptimize(r.winners);
  }
  state.counters["sim_steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullElection)->Arg(4)->Arg(64)->Arg(1024);

void BM_ModelCheckerRun(benchmark::State& state) {
  // One full re-execution of a 2-process LE2 under the decision tape --
  // the unit of work of explore_all.
  for (auto _ : state) {
    support::TapeSource master({});
    sim::Kernel kernel;
    algo::SimPlatform::Arena arena(kernel.memory());
    auto le = std::make_shared<algo::Le2<algo::SimPlatform>>(arena);
    for (int side = 0; side < 2; ++side) {
      kernel.add_process(
          [le, side](sim::Context& ctx) { le->elect(ctx, side); },
          std::make_unique<sim::SharedSource>(master));
    }
    kernel.start();
    while (!kernel.all_done()) {
      const std::vector<int>& runnable = kernel.runnable_set().pids();
      std::size_t pick = 0;
      if (runnable.size() > 1) {
        pick = static_cast<std::size_t>(master.draw(runnable.size()));
      }
      kernel.grant(runnable[pick]);
    }
    benchmark::DoNotOptimize(kernel.total_steps());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelCheckerRun);

}  // namespace

BENCHMARK_MAIN();
