#include "fault/plan.hpp"

#include <cmath>
#include <cstdlib>

#include "support/rng.hpp"

namespace rts::fault {

namespace {

// Seed-stream salts: each decision family draws from its own derived
// stream, so adding a clause to a plan never shifts another clause's
// decisions for the same seed.
constexpr std::uint64_t kNoShowSalt = 0xfa017'001;
constexpr std::uint64_t kDelaySalt = 0xfa017'002;
constexpr std::uint64_t kStallSalt = 0xfa017'003;
constexpr std::uint64_t kDeathSalt = 0xfa017'004;

// Bernoulli at 2^-20 resolution (the sim adversaries' idiom).
constexpr std::uint64_t kProbScale = 1u << 20;

std::uint64_t prob_threshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return kProbScale;
  return static_cast<std::uint64_t>(
      std::llround(p * static_cast<double>(kProbScale)));
}

bool bernoulli(support::PrngSource& rng, std::uint64_t threshold) {
  return rng.draw(kProbScale) < threshold;
}

bool parse_double(std::string_view text, double* out) {
  char buffer[64];
  if (text.empty() || text.size() >= sizeof buffer) return false;
  text.copy(buffer, text.size());
  buffer[text.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buffer, &end);
  return end == buffer + text.size();
}

bool parse_u32(std::string_view text, std::uint32_t* out) {
  if (text.empty() || text.size() > 10) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value > UINT32_MAX) return false;
  *out = static_cast<std::uint32_t>(value);
  return true;
}

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Parses one "kind:key=value,..." clause into `plan`.
bool parse_clause(std::string_view clause, FaultPlan* plan,
                  std::string* error) {
  const std::size_t colon = clause.find(':');
  const std::string_view kind = trim(clause.substr(0, colon));
  double p = -1.0;
  std::uint32_t us = 0;
  bool has_us = false;
  std::string_view rest =
      colon == std::string_view::npos ? std::string_view{}
                                      : clause.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return fail(error, "fault clause key without '=': '" +
                             std::string(pair) + "'");
    }
    const std::string_view key = trim(pair.substr(0, eq));
    const std::string_view value = trim(pair.substr(eq + 1));
    if (key == "p") {
      // Written so that NaN, which fails every comparison, fails it too.
      if (!parse_double(value, &p) || !(p >= 0.0 && p <= 1.0)) {
        return fail(error, "fault probability must be in [0,1], got '" +
                               std::string(value) + "'");
      }
    } else if (key == "us") {
      if (!parse_u32(value, &us)) {
        return fail(error, "fault duration must be a small integer, got '" +
                               std::string(value) + "'");
      }
      has_us = true;
    } else {
      return fail(error,
                  "unknown fault clause key '" + std::string(key) + "'");
    }
  }
  if (p < 0.0) {
    return fail(error, "fault clause '" + std::string(kind) +
                           "' needs p=<probability>");
  }
  const auto need_us = [&]() -> bool {
    if (p > 0.0 && (!has_us || us == 0)) {
      return fail(error, "fault clause '" + std::string(kind) +
                             "' needs us=<positive microseconds>");
    }
    return true;
  };
  if (kind == "stall") {
    if (!need_us()) return false;
    plan->stall_p = p;
    plan->stall_us = us;
  } else if (kind == "noshow") {
    plan->noshow_p = p;
  } else if (kind == "delay") {
    if (!need_us()) return false;
    plan->delay_p = p;
    plan->delay_us = us;
  } else if (kind == "die") {
    plan->die_p = p;
  } else {
    return fail(error,
                "unknown fault clause '" + std::string(kind) +
                    "' (expected stall, noshow, delay, or die)");
  }
  return true;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(std::string_view text,
                                          std::string* error) {
  FaultPlan plan;
  plan.spec = std::string(text);
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view clause = trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (clause.empty()) continue;
    if (!parse_clause(clause, &plan, error)) return std::nullopt;
  }
  return plan;
}

TrialFaults FaultPlan::for_trial(std::uint64_t trial_seed, int k) const {
  TrialFaults faults;
  faults.participants.resize(static_cast<std::size_t>(k));
  if (!active() || k <= 0) return faults;

  if (noshow_p > 0.0) {
    const std::uint64_t threshold = prob_threshold(noshow_p);
    support::PrngSource rng(support::derive_seed(trial_seed, kNoShowSalt));
    for (auto& participant : faults.participants) {
      participant.no_show = bernoulli(rng, threshold);
    }
    // Sparing: an election where everyone drew no-show would have no
    // contender at all; deterministically spare participant 0, mirroring
    // CrashInjectingAdversary's never-crash-the-last-runnable rule.
    bool all_out = true;
    for (const auto& participant : faults.participants) {
      all_out = all_out && participant.no_show;
    }
    if (all_out) faults.participants.front().no_show = false;
    for (const auto& participant : faults.participants) {
      if (participant.no_show) ++faults.no_shows;
    }
  }
  if (delay_p > 0.0) {
    const std::uint64_t threshold = prob_threshold(delay_p);
    support::PrngSource rng(support::derive_seed(trial_seed, kDelaySalt));
    for (auto& participant : faults.participants) {
      if (bernoulli(rng, threshold) && !participant.no_show) {
        participant.delay_us = delay_us;
        ++faults.delays;
      }
    }
  }
  if (stall_p > 0.0) {
    const std::uint64_t threshold = prob_threshold(stall_p);
    support::PrngSource rng(support::derive_seed(trial_seed, kStallSalt));
    for (auto& participant : faults.participants) {
      // The op-index draw is unconditional so each participant consumes a
      // fixed number of draws: the stall decisions of participant i never
      // depend on whether participant i-1 was hit.
      const std::uint64_t after_op = 1 + rng.draw(8);
      if (bernoulli(rng, threshold) && !participant.no_show) {
        participant.stall_us = stall_us;
        participant.stall_after_op = after_op;
        ++faults.stalls;
      }
    }
  }
  return faults;
}

bool FaultPlan::worker_dies(std::uint64_t master_seed, int worker,
                            std::uint64_t claim) const {
  if (die_p <= 0.0 || worker == 0) return false;
  support::PrngSource rng(support::derive_seed(
      support::derive_seed(master_seed,
                           kDeathSalt + static_cast<std::uint64_t>(worker)),
      claim));
  return bernoulli(rng, prob_threshold(die_p));
}

}  // namespace rts::fault
