// Experiment E5 (Theorem 4.1 / Corollary 4.2): the adversary matrix.
//
// The weak-scheduler column is campaign preset "combined-weak" (`rts_bench
// --preset combined-weak` prints its table); this binary runs its grid for
// the cell means, then drives the white-box group-election-neutralizer
// attack (which must decode algorithm phases, so it cannot be a black-box
// campaign adversary) and prints the matrix: weak vs attack, per algorithm
// and k.
// The paper's claims, visible as shapes:
//  * the log* chain is fast under the weak scheduler but Theta(k) under the
//    attack;
//  * RatRace is O(log k) under both;
//  * the combiner inherits the best column of both: log*-fast when the
//    scheduler is weak AND O(log k) under the attack.
#include <algorithm>
#include <cstdio>

#include "algo/attacks.hpp"
#include "bench_util.hpp"
#include "campaign/executor.hpp"
#include "campaign/presets.hpp"
#include "support/math.hpp"

namespace {

using namespace rts;

const campaign::CellResult* find_cell(const campaign::CampaignResult& result,
                                      algo::AlgorithmId algorithm, int k) {
  for (const campaign::CellResult& cell : result.cells) {
    if (cell.cell.algorithm == algorithm && cell.cell.k == k) return &cell;
  }
  return nullptr;
}

}  // namespace

int main() {
  campaign::ExecutorOptions parallel;
  parallel.workers = 0;
  const campaign::CampaignResult weak =
      campaign::run_campaign(campaign::find_preset("combined-weak")->spec,
                             parallel);

  for (const int k : {32, 128, 512}) {
    support::Table table(
        "attack matrix, k = " + std::to_string(k) + " (log2 k = " +
            support::Table::num(static_cast<std::size_t>(
                support::log2_ceil(static_cast<std::uint64_t>(k)))) +
            ", log* k = " +
            support::Table::num(
                static_cast<std::size_t>(support::log_star(k))) + ")",
        {"algorithm", "weak E[max steps]", "attack max steps",
         "attack/weak"});
    for (const algo::AlgorithmId id : weak.spec.algorithms) {
      const campaign::CellResult* cell = find_cell(weak, id, k);
      if (cell == nullptr) continue;
      const auto attack = algo::run_attack(
          id, algo::AttackKind::kGroupElectionNeutralizer, k, 3);
      table.add_row(
          {algo::info(id).name, support::fmt_mean_ci(cell->agg.max_steps),
           support::Table::num(static_cast<std::size_t>(attack.max_steps)),
           support::Table::num(
               static_cast<double>(attack.max_steps) /
                   std::max(1.0, cell->agg.max_steps.mean()),
               1)});
    }
    table.print();
  }

  std::printf(
      "\nReading: the attack column explodes linearly for the unprotected "
      "weak-adversary algorithms\n(attack/weak ratio grows with k), stays "
      "logarithmic for ratrace-path and both combined variants.\n");
  return 0;
}
