// Experiment E3 (Section 2.3 / Theorem 2.4): sifting-based election.
//
// The two grid tables -- chain steps vs k, and the adaptivity comparison at
// fixed n = 4096 -- are campaign presets "sifting" and "sifting-adaptive"
// (`rts_bench --preset sifting,sifting-adaptive`).  This binary runs the
// bespoke survivor-decay measurement, which instruments the per-round
// survivor counts inside the chain rather than running it as a black-box
// leader election.
#include <cmath>
#include <cstdio>
#include <memory>

#include "algo/chain.hpp"
#include "algo/group_elect.hpp"
#include "algo/sim_platform.hpp"
#include "bench_util.hpp"
#include "sim/adversaries.hpp"
#include "sim/kernel.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace {

using namespace rts;
using P = algo::SimPlatform;

/// Measures survivors after each sift round for contention k.
std::vector<double> survivor_decay(int k, int trials, std::uint64_t seed0) {
  const auto schedule = algo::sift_schedule(k);
  std::vector<support::Accumulator> per_round(schedule.size());
  for (int trial = 0; trial < trials; ++trial) {
    sim::Kernel kernel;
    P::Arena arena(kernel.memory());
    std::vector<std::shared_ptr<algo::SiftGroupElect<P>>> rounds;
    rounds.reserve(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      rounds.push_back(
          std::make_shared<algo::SiftGroupElect<P>>(arena, schedule[i]));
    }
    auto survivors =
        std::make_shared<std::vector<int>>(schedule.size(), 0);
    for (int pid = 0; pid < k; ++pid) {
      kernel.add_process(
          [&rounds, survivors](sim::Context& ctx) {
            for (std::size_t i = 0; i < rounds.size(); ++i) {
              if (!rounds[i]->elect(ctx)) return;
              ++(*survivors)[i];
            }
          },
          std::make_unique<support::PrngSource>(support::derive_seed(
              support::derive_seed(seed0, trial), pid)));
    }
    sim::UniformRandomAdversary adversary(
        support::derive_seed(seed0, 5000 + trial));
    kernel.run(adversary);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      per_round[i].add((*survivors)[i]);
    }
  }
  std::vector<double> means;
  means.reserve(per_round.size());
  for (const auto& acc : per_round) means.push_back(acc.mean());
  return means;
}

}  // namespace

int main() {
  bench::banner("E3: sift-round survivor decay (AA chain + Thm 2.4 cascade)",
                "survivors ~ n^((1-eps)^i) per round, so O(log log n) rounds "
                "(step tables: presets sifting, sifting-adaptive)");

  {
    support::Table decay("Survivors after each sift round (k = 1024)",
                         {"round", "p_i", "E[survivors]",
                          "bound 2*sqrt(prev)"});
    const int k = 1024;
    const auto schedule = algo::sift_schedule(k);
    const auto means = survivor_decay(k, 150, 7);
    double prev = k;
    for (std::size_t i = 0; i < means.size(); ++i) {
      decay.add_row({support::Table::num(i + 1),
                     support::Table::num(schedule[i], 4),
                     support::Table::num(means[i], 1),
                     support::Table::num(2.0 * std::sqrt(prev) + 1.0, 1)});
      prev = means[i];
    }
    decay.print();
  }

  std::printf(
      "\nReading: survivors collapse doubly-exponentially.\n");
  return 0;
}
