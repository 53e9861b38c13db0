// The one algorithm switch: builds each register algorithm of the
// AlgorithmId catalogue for either platform.  algo::make_sim_le and
// hw::make_hw_le are thin wrappers that keep the catalogue's supports()
// gate and add their platform's own entries (abortable-race on the
// simulator; diverge-hw and native-atomic on hardware).
#pragma once

#include <memory>

#include "algo/aa.hpp"
#include "algo/cascade.hpp"
#include "algo/chain.hpp"
#include "algo/combined.hpp"
#include "algo/platform.hpp"
#include "algo/ratrace.hpp"
#include "algo/registry.hpp"
#include "algo/tournament.hpp"
#include "support/assert.hpp"

namespace rts::algo {

/// Constructs the algorithm for up to n processes on platform P.  Returns
/// nullptr for the platform-specific ids, which the wrappers handle.
template <Platform P>
std::unique_ptr<ILeaderElect<P>> make_le(AlgorithmId id,
                                         typename P::Arena arena, int n) {
  switch (id) {
    case AlgorithmId::kLogStarChain:
      return std::make_unique<GeChainLe<P>>(
          arena, n, fig1_truncated_factory<P>(n, default_live_prefix(n)));
    case AlgorithmId::kSiftChain:
      return std::make_unique<GeChainLe<P>>(arena, n,
                                            sift_truncated_factory<P>(n));
    case AlgorithmId::kSiftCascade:
      return std::make_unique<SiftCascadeLe<P>>(arena, n);
    case AlgorithmId::kRatRace:
      return std::make_unique<RatRaceOriginal<P>>(arena, n);
    case AlgorithmId::kRatRacePath:
      return std::make_unique<RatRacePath<P>>(arena, n);
    case AlgorithmId::kCombinedLogStar:
      return std::make_unique<CombinedLe<P>>(
          arena, n,
          std::make_unique<GeChainLe<P>>(
              arena, n, fig1_truncated_factory<P>(n, default_live_prefix(n))));
    case AlgorithmId::kCombinedSift:
      return std::make_unique<CombinedLe<P>>(
          arena, n, std::make_unique<SiftCascadeLe<P>>(arena, n));
    case AlgorithmId::kTournament:
      return std::make_unique<TournamentLe<P>>(arena, n);
    case AlgorithmId::kAaSiftRatRace:
      return std::make_unique<AaSiftRatRaceLe<P>>(arena, n);
    case AlgorithmId::kNativeAtomic:
    case AlgorithmId::kDivergeHw:
    case AlgorithmId::kAbortableRace:
      return nullptr;
  }
  RTS_ASSERT_MSG(false, "unknown algorithm id");
  return nullptr;
}

}  // namespace rts::algo
