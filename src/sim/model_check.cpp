#include "sim/model_check.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "support/assert.hpp"

namespace rts::sim {

namespace {

struct SingleRunOutcome {
  bool truncated = false;
  bool completed = false;
  std::string violation;
  std::vector<support::TapeSource::Decision> history;
};

SingleRunOutcome run_one(
    const std::function<void(Kernel&, support::RandomSource&)>& build,
    const std::function<std::string(const Kernel&)>& stepwise_check,
    const std::function<std::string(const Kernel&)>& terminal_check,
    const ExploreOptions& options,
    std::vector<support::TapeSource::Decision> tape) {
  SingleRunOutcome out;
  support::TapeSource master(std::move(tape));
  Kernel kernel(options.kernel);
  build(kernel, master);
  kernel.start();

  out.violation = stepwise_check(kernel);
  while (out.violation.empty() && !kernel.all_done()) {
    if (master.history().size() >= options.max_decisions) {
      out.truncated = true;
      break;
    }
    const std::vector<int>& runnable = kernel.runnable_set().pids();
    RTS_ASSERT(!runnable.empty());
    std::size_t pick = 0;
    if (runnable.size() > 1) {
      pick = static_cast<std::size_t>(master.draw(runnable.size()));
    }
    kernel.grant(runnable[pick]);
    out.violation = stepwise_check(kernel);
  }
  if (out.violation.empty() && kernel.all_done()) {
    out.completed = true;
    out.violation = terminal_check(kernel);
  }
  out.history = master.history();
  return out;
}

}  // namespace

ReplayResult replay_tape(
    const std::function<void(Kernel&, support::RandomSource&)>& build,
    const std::function<std::string(const Kernel&)>& stepwise_check,
    const std::function<std::string(const Kernel&)>& terminal_check,
    const ExploreOptions& options,
    std::vector<support::TapeSource::Decision> tape) {
  const SingleRunOutcome out = run_one(build, stepwise_check, terminal_check,
                                       options, std::move(tape));
  ReplayResult result;
  result.truncated = out.truncated;
  result.completed = out.completed;
  result.violation = out.violation;
  return result;
}

std::string format_tape(
    const std::vector<support::TapeSource::Decision>& tape) {
  std::string out;
  for (const auto& decision : tape) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%llu/%llu ",
                  static_cast<unsigned long long>(decision.value),
                  static_cast<unsigned long long>(decision.arity));
    out += buf;
  }
  if (!out.empty()) out.pop_back();
  return out;
}

std::optional<std::vector<support::TapeSource::Decision>> parse_tape(
    const std::string& text) {
  std::vector<support::TapeSource::Decision> tape;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto slash = token.find('/');
    if (slash == std::string::npos) return std::nullopt;
    try {
      support::TapeSource::Decision decision;
      decision.value = std::stoull(token.substr(0, slash));
      decision.arity = std::stoull(token.substr(slash + 1));
      if (decision.arity == 0 || decision.value >= decision.arity) {
        return std::nullopt;
      }
      tape.push_back(decision);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return tape;
}

ExploreResult explore_all(
    const std::function<void(Kernel&, support::RandomSource&)>& build,
    const std::function<std::string(const Kernel&)>& stepwise_check,
    const std::function<std::string(const Kernel&)>& terminal_check,
    const ExploreOptions& options) {
  ExploreResult result;
  std::vector<support::TapeSource::Decision> tape;

  while (result.runs < options.max_runs) {
    SingleRunOutcome out =
        run_one(build, stepwise_check, terminal_check, options, tape);
    ++result.runs;
    if (out.truncated) ++result.truncated_runs;
    if (out.completed) ++result.completed_runs;
    if (!out.violation.empty()) {
      result.violation_found = true;
      result.violation = out.violation;
      result.violating_tape = out.history;
      return result;
    }

    // Advance depth-first: bump the last decision that still has an
    // unexplored sibling outcome, truncating everything after it.
    auto& h = out.history;
    int i = static_cast<int>(h.size()) - 1;
    while (i >= 0 && h[static_cast<std::size_t>(i)].value + 1 >=
                         h[static_cast<std::size_t>(i)].arity) {
      --i;
    }
    if (i < 0) {
      result.exhausted = true;
      return result;
    }
    h.resize(static_cast<std::size_t>(i) + 1);
    ++h[static_cast<std::size_t>(i)].value;
    tape = std::move(h);
  }
  return result;
}

}  // namespace rts::sim
