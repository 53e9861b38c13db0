// The Alistarh-Aspnes algorithm (DISC 2011) -- the "AA-algorithm" the paper
// builds on and improves: O(log log n) rounds of sifting followed by
// RatRace among the survivors.
//
// Two properties matter here (measured by the `landscape` preset and
// bench_combined):
//  * against the R/W-oblivious adversary the sifting phase cuts the cohort
//    doubly-exponentially, so the expected step complexity is O(log log n)
//    (not adaptive -- the schedule is sized for n; Theorem 2.4's cascade is
//    the adaptive fix);
//  * the paper highlights that AA "degrades gracefully": even against the
//    fully adaptive adversary -- which can neutralize every sifting round --
//    the RatRace backup still finishes in O(log n) steps.  This is the
//    behaviour the Section-4 combiner generalizes.
//
// We use the paper's own Theta(n)-space RatRace variant as the backup (the
// original used the Theta(n^3) one, which predates Section 3).
#pragma once

#include <memory>
#include <vector>

#include "algo/chain.hpp"
#include "algo/group_elect.hpp"
#include "algo/platform.hpp"
#include "algo/ratrace.hpp"

namespace rts::algo {

template <Platform P>
class AaSiftRatRaceLe final : public ILeaderElect<P> {
 public:
  AaSiftRatRaceLe(typename P::Arena arena, int n) : ratrace_(arena, n) {
    const auto schedule = sift_schedule(n);
    sifters_.reserve(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      sifters_.push_back(std::make_unique<SiftGroupElect<P>>(
          arena, schedule[i], static_cast<std::uint32_t>(i)));
    }
  }

  sim::Outcome elect(typename P::Context& ctx) override {
    // Sifting phase: only elected processes continue; at least one process
    // survives every round (a writer, or a reader that read before any
    // write), so the backup is never empty.
    for (auto& sifter : sifters_) {
      if (!sifter->elect(ctx)) return sim::Outcome::kLose;
    }
    return ratrace_.elect(ctx);
  }

  std::size_t declared_registers() const override {
    return sifters_.size() + ratrace_.declared_registers();
  }

  void reset_trial_state() override { ratrace_.reset_trial_state(); }

  int sift_rounds() const { return static_cast<int>(sifters_.size()); }

 private:
  std::vector<std::unique_ptr<SiftGroupElect<P>>> sifters_;
  RatRacePath<P> ratrace_;
};

}  // namespace rts::algo
