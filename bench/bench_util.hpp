// Shared scaffolding for the bespoke experiment binaries: the banner the
// non-grid sections print, plus the table and statistics headers they all
// use.  Grid experiments are rts_bench presets (campaign/presets.hpp).
#pragma once

#include <cstdio>

#include "support/stats.hpp"
#include "support/table.hpp"

namespace rts::bench {

inline void banner(const char* experiment, const char* claim) {
  std::printf("\n######################################################\n");
  std::printf("# %s\n", experiment);
  std::printf("# Paper claim: %s\n", claim);
  std::printf("######################################################\n");
}

}  // namespace rts::bench
