// Experiment E2 (Theorem 2.3): the Fig-1 chain's expected max step count
// under weak (location-oblivious) scheduling grows like log* k -- essentially
// flat -- while using O(n) registers.
//
// The step-complexity sweep is campaign preset "logstar" (`rts_bench
// --preset logstar`); this binary runs ablation D3, which needs a bespoke
// builder: space of the truncated chain (live prefix Theta(log n) + dummy
// tail) vs a fully live chain (Theta(n log n)).
#include <cstdio>

#include "algo/chain.hpp"
#include "algo/registry.hpp"
#include "bench_util.hpp"
#include "sim/kernel.hpp"
#include "support/math.hpp"

namespace {

using namespace rts;
using P = algo::SimPlatform;

sim::LeBuilder full_live_builder() {
  return [](sim::Kernel& kernel, int n) -> sim::BuiltLe {
    P::Arena arena(kernel.memory());
    auto le = std::make_shared<algo::GeChainLe<P>>(
        arena, n, algo::fig1_truncated_factory<P>(n, /*live_prefix=*/n));
    sim::BuiltLe built;
    built.keepalive = le;
    built.declared_registers = le->declared_registers();
    built.elect = [le](sim::Context& ctx) { return le->elect(ctx); };
    return built;
  };
}

}  // namespace

int main() {
  support::Table space("D3 ablation: registers, truncated vs fully live chain",
                       {"n", "truncated (Thm 2.3)", "fully live",
                        "n (linear ref)", "n log2 n"});
  for (const int n : {64, 256, 1024, 4096}) {
    sim::Kernel k1;
    const auto truncated =
        algo::sim_builder(algo::AlgorithmId::kLogStarChain)(k1, n);
    sim::Kernel k2;
    const auto live = full_live_builder()(k2, n);
    space.add_row(
        {support::Table::num(static_cast<std::size_t>(n)),
         support::Table::num(truncated.declared_registers),
         support::Table::num(live.declared_registers),
         support::Table::num(static_cast<std::size_t>(n)),
         support::Table::num(static_cast<std::size_t>(
             n * support::log2_ceil(static_cast<std::uint64_t>(n))))});
  }
  space.print();

  std::printf(
      "\nReading: truncated space tracks the linear reference, the fully "
      "live chain tracks n log n.\n");
  return 0;
}
