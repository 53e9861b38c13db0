// High-level harness: build a leader-election instance inside a kernel, run
// k participants against an adversary, collect step counts, outcomes, space
// accounting, and safety-violation diagnostics.
//
// Algorithms are delivered as type-erased BuiltLe factories so the runner,
// tests, and benches are independent of the concrete algorithm templates.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/backend.hpp"
#include "sim/adversary.hpp"
#include "sim/kernel.hpp"
#include "sim/types.hpp"
#include "support/stats.hpp"

namespace rts::sim {

/// A leader-election instance materialized inside some kernel's memory.
struct BuiltLe {
  /// Owns the algorithm object graph (kept alive for the kernel's lifetime).
  std::shared_ptr<void> keepalive;
  /// One-shot election call; invoked at most once per process (per trial).
  std::function<Outcome(Context&)> elect;
  /// Clears per-process local state between trials of a pooled workspace
  /// (ILeaderElect::reset_trial_state).  Null means nothing to clear.
  std::function<void()> reset;
  /// Registers the structure would occupy if fully materialized (analytic;
  /// lazily-built structures allocate fewer).
  std::size_t declared_registers = 0;
  /// True when elect() honours adversary abort requests (may return
  /// Outcome::kAbort); gates the abort-validity checks in
  /// collect_le_result so non-abortable algorithms are not blamed for
  /// ignoring a request they cannot see.
  bool abortable = false;
};

class BatchAlgorithm;  // sim/batch.hpp

/// Builds a leader-election instance sized for up to `n` processes, and,
/// for an algorithm with a step machine (sim/batch.hpp), that machine.
/// Converts implicitly from any callable of the build function's signature,
/// so a bare lambda is a builder without a machine.
struct LeBuilder {
  using Build = std::function<BuiltLe(Kernel&, int n)>;
  /// The machine for `n` processes with `k` participants (pids 0..k-1).
  using Machine =
      std::function<std::unique_ptr<BatchAlgorithm>(int n, int k)>;

  Build build;
  /// Empty when the algorithm has no machine.  Where set, the machine's
  /// trials are byte-identical to build's on the fiber kernel, so
  /// exec::TrialWorkspace::run_le_trial_summary may run either.
  Machine machine;

  LeBuilder() = default;
  template <class F>
    requires(!std::same_as<std::remove_cvref_t<F>, LeBuilder> &&
             std::is_invocable_r_v<BuiltLe, F&, Kernel&, int>)
  LeBuilder(F&& f) : build(std::forward<F>(f)) {}

  BuiltLe operator()(Kernel& kernel, int n) const { return build(kernel, n); }
};

/// Creates a fresh adversary for a trial with the given seed.
using AdversaryFactory =
    std::function<std::unique_ptr<Adversary>(std::uint64_t seed)>;

struct LeRunResult {
  int n = 0;  ///< capacity the object was built for
  int k = 0;  ///< participants
  std::vector<Outcome> outcomes;
  std::vector<std::uint64_t> steps;
  std::uint64_t max_steps = 0;
  std::uint64_t total_steps = 0;
  int winners = 0;
  int losers = 0;
  int aborted = 0;     ///< finished with Outcome::kAbort
  int unfinished = 0;  ///< crashed or starved
  int abort_requests = 0;  ///< distinct pids the adversary asked to abort
  std::size_t regs_allocated = 0;
  std::size_t regs_touched = 0;
  std::size_t declared_registers = 0;
  std::uint64_t rmr_total = 0;  ///< all-pid RMR tally (0 under RmrModel::kNone)
  std::uint64_t rmr_max = 0;    ///< largest per-pid RMR tally
  bool crash_free = true;
  bool completed = true;  ///< false if the kernel step limit was hit
  std::vector<std::string> violations;
};

/// Runs one election: builds the object for `n` processes, spawns `k`
/// participants (pids 0..k-1) seeded from `seed`, and drives them with
/// `adversary`.  Safety violations (two winners; or no winner despite a
/// crash-free complete run) are recorded in the result.
LeRunResult run_le_once(const LeBuilder& builder, int n, int k,
                        Adversary& adversary, std::uint64_t seed,
                        Kernel::Options kernel_options = {});

/// Post-run collection shared by the fresh path above and the pooled
/// exec::TrialWorkspace: steps, space accounting, and the safety/liveness
/// checks over a kernel whose `k` participants just ran to `outcomes`.
/// Keeping one implementation is what makes pooled and fresh trials
/// byte-identical.
LeRunResult collect_le_result(const Kernel& kernel, int n, int k,
                              const std::vector<Outcome>& outcomes,
                              std::size_t declared_registers, bool completed,
                              bool abortable = false);

/// Sim trials summarize into the backend-agnostic contract shared with the
/// hardware harness (exec/backend.hpp); the historical Le-prefixed names are
/// kept as aliases for existing call sites.
using LeTrialSummary = exec::TrialSummary;
using LeAggregate = exec::Aggregate;

LeTrialSummary summarize_trial(const LeRunResult& result);

/// The violation rules of one finished trial, in report order: safety; then
/// liveness, checked only on complete, crash-free, abort-free runs; then the
/// per-pid abort checks in pid order.  `trial` answers abort_requests() and
/// abort_requested(pid); `emit(std::string)` receives each violation and
/// returns whether to keep scanning.  collect_le_result, summarize_le_trial
/// and the step-machine engine all judge trials through this one scan.
template <class Trial, class Emit>
void for_each_violation(const Trial& trial, int k,
                        const std::vector<Outcome>& outcomes, int winners,
                        bool completed, bool crash_free, bool abortable,
                        Emit&& emit) {
  if (winners > 1 && !emit("safety: more than one winner (" +
                           std::to_string(winners) + ")")) {
    return;
  }
  // A requested abort legitimately leaves the run winnerless (every
  // participant may return kAbort/kLose), so the liveness rule only fires
  // on abort-free runs.
  if (completed && crash_free && trial.abort_requests() == 0 &&
      winners != 1 &&
      !emit("liveness: crash-free complete run without exactly one winner")) {
    return;
  }
  for (int pid = 0; pid < k; ++pid) {
    const Outcome outcome = outcomes[static_cast<std::size_t>(pid)];
    if (outcome == Outcome::kAbort && !trial.abort_requested(pid) &&
        !emit("abort: pid " + std::to_string(pid) +
              " aborted without a request")) {
      return;
    }
    if (abortable && outcome == Outcome::kWin && trial.abort_requested(pid) &&
        !emit("abort: pid " + std::to_string(pid) +
              " won despite an abort request (must abort or lose)")) {
      return;
    }
  }
}

/// The one trial fold: a finished run of `k` participants that ended in
/// `outcomes` becomes its TrialSummary -- exactly
/// `summarize_trial(collect_le_result(...))`, without materializing
/// LeRunResult's per-pid vectors or the full violation list.  `trial`
/// answers steps(pid), crashed(pid), abort_requested(pid), abort_requests(),
/// total_steps(), regs_touched(), rmr_total() and rmr_max().  The fiber
/// kernel folds through summarize_le_trial; the step-machine engine
/// (sim/batch.cpp) answers for itself.
template <class Trial>
LeTrialSummary fold_le_trial(const Trial& trial, int k,
                             const std::vector<Outcome>& outcomes,
                             std::size_t declared_registers, bool completed,
                             bool abortable) {
  LeTrialSummary summary;
  summary.backend = exec::Backend::kSim;
  summary.k = k;
  int winners = 0;
  for (int pid = 0; pid < k; ++pid) {
    summary.max_steps = std::max(summary.max_steps, trial.steps(pid));
    if (trial.crashed(pid)) summary.crash_free = false;
    switch (outcomes[static_cast<std::size_t>(pid)]) {
      case Outcome::kWin:
        ++winners;
        break;
      case Outcome::kAbort:
        ++summary.aborted;
        break;
      case Outcome::kUnknown:
        ++summary.unfinished;
        break;
      case Outcome::kLose:
        break;
    }
  }
  summary.total_steps = trial.total_steps();
  summary.regs_touched = trial.regs_touched();
  summary.declared_registers = declared_registers;
  summary.completed = completed;
  summary.rmr_total = trial.rmr_total();
  summary.rmr_max = trial.rmr_max();
  // Sim latency is the trial's max step count: the deterministic analog of
  // wall time, so histogram percentiles stay bitwise-reproducible.
  summary.latency = summary.max_steps;
  for_each_violation(trial, k, outcomes, winners, completed,
                     summary.crash_free, abortable, [&](std::string v) {
                       summary.first_violation = std::move(v);
                       return false;
                     });
  return summary;
}

/// fold_le_trial over a kernel whose `k` participants just ran.  The pooled
/// trial path (exec::TrialWorkspace::run_le_trial_summary) folds through
/// this on every trial, so its per-trial heap traffic stays at zero.
LeTrialSummary summarize_le_trial(const Kernel& kernel, int k,
                                  const std::vector<Outcome>& outcomes,
                                  std::size_t declared_registers,
                                  bool completed, bool abortable);

/// Folds one trial into the aggregate.  run_le_many is exactly a loop of
/// run_le_trial + accumulate_trial, so any executor that calls these in
/// trial order reproduces run_le_many's aggregates bit for bit.
using exec::accumulate_trial;

/// The seed run_le_many has always used for trial `t` of a stream seeded
/// with `seed0`.
std::uint64_t trial_seed(std::uint64_t seed0, int trial);

/// The adversary seed derived from a trial's seed -- the one derivation
/// shared by the fresh path, the pooled workspace, and any baseline
/// reconstruction, so the paths cannot drift apart.
std::uint64_t adversary_seed(std::uint64_t trial_seed);

/// Runs trial `trial` of the (builder, n, k, adversary_factory, seed0)
/// stream: one election with the trial's derived seed and a fresh adversary.
LeRunResult run_le_trial(const LeBuilder& builder, int n, int k,
                         const AdversaryFactory& adversary_factory, int trial,
                         std::uint64_t seed0,
                         Kernel::Options kernel_options = {});

/// Runs `trials` elections through one pooled exec::TrialWorkspace (the
/// kernel, fibers, and register layout are built once and rewound between
/// trials) and folds them in trial order.  Aggregates are byte-identical to
/// the historical fresh-kernel-per-trial loop for the same seeds.
LeAggregate run_le_many(const LeBuilder& builder, int n, int k,
                        const AdversaryFactory& adversary_factory, int trials,
                        std::uint64_t seed0,
                        Kernel::Options kernel_options = {});

}  // namespace rts::sim
