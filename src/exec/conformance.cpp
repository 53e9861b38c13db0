#include "exec/conformance.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "exec/workspace.hpp"
#include "fiber/fiber.hpp"
#include "hw/harness.hpp"
#include "hw/platform.hpp"
#include "sim/adversaries.hpp"
#include "sim/runner.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace rts::exec {

namespace {

std::string pid_field(const char* field, int pid, std::uint64_t want,
                      std::uint64_t got) {
  return std::string("pid ") + std::to_string(pid) + " " + field + ": " +
         std::to_string(want) + " vs " + std::to_string(got);
}

/// One participant of the scheduled hw drive: an election running on a
/// fiber that yields to the driver after every shared op (combiner child
/// ops included, via charge_child_op's yield).
struct HwParticipant {
  std::optional<support::PrngSource> rng;
  std::unique_ptr<fiber::Fiber> fib;
  std::optional<hw::HwPlatform::Context> ctx;
  sim::Outcome outcome = sim::Outcome::kUnknown;
  bool crashed = false;
};

}  // namespace

std::string result_mismatch(const sim::LeRunResult& a,
                            const sim::LeRunResult& b) {
  if (a.k != b.k) return "participant count differs";
  for (int pid = 0; pid < a.k; ++pid) {
    const auto i = static_cast<std::size_t>(pid);
    if (a.outcomes[i] != b.outcomes[i]) {
      return pid_field("outcome", pid, static_cast<std::uint64_t>(a.outcomes[i]),
                       static_cast<std::uint64_t>(b.outcomes[i]));
    }
    if (a.steps[i] != b.steps[i]) {
      return pid_field("steps", pid, a.steps[i], b.steps[i]);
    }
  }
  if (a.total_steps != b.total_steps) return "total_steps differs";
  if (a.regs_touched != b.regs_touched) return "regs_touched differs";
  if (a.completed != b.completed) return "completed differs";
  if (a.crash_free != b.crash_free) return "crash_free differs";
  if (a.violations != b.violations) return "violations differ";
  if (a.rmr_total != b.rmr_total) return "rmr_total differs";
  if (a.rmr_max != b.rmr_max) return "rmr_max differs";
  if (a.abort_requests != b.abort_requests) return "abort_requests differ";
  return {};
}

namespace {

/// Re-drives one recorded trial on the hardware platform, single-threaded:
/// resumes participant fibers in exactly the recorded grant order (one
/// resume = one shared op on real std::atomic registers), abandons crashed
/// and starved participants, and finally lets participants the sim replay
/// says finished run op-free to their return.  Mismatches against
/// `reference` (the sim replay of the same trial) are appended to `out`.
void drive_hw_scheduled(algo::AlgorithmId id, const sim::CellTrace& cell,
                        const sim::TrialTrace& trial,
                        const sim::LeRunResult& reference,
                        const std::string& label,
                        std::vector<std::string>* out) {
  const int n = static_cast<int>(cell.n);
  const int k = static_cast<int>(cell.k);
  hw::RegisterPool pool;
  hw::HwPlatform::Arena arena(pool);
  const std::unique_ptr<algo::ILeaderElect<hw::HwPlatform>> le =
      hw::make_hw_le(id, arena, n);
  RTS_ASSERT(le != nullptr);

  fiber::ExecutionContext driver;
  std::vector<HwParticipant> participants(static_cast<std::size_t>(k));
  for (int pid = 0; pid < k; ++pid) {
    HwParticipant* p = &participants[static_cast<std::size_t>(pid)];
    p->rng.emplace(support::derive_seed(trial.trial_seed,
                                        static_cast<std::uint64_t>(pid)));
    p->fib = std::make_unique<fiber::Fiber>(
        [p, le = le.get()] { p->outcome = le->elect(*p->ctx); });
    // Child-style context: the fiber itself is the continuation slot, and
    // every shared op yields back to the driver -- the same mechanism the
    // combiner uses, promoted to whole-schedule control.
    p->ctx.emplace(pid, *p->rng, *p->fib);
    p->ctx->set_yield_after_op(&driver);
    p->fib->set_return_to(&driver);
  }

  // Impose the recorded schedule: one resume per grant, abandonment per
  // crash.  A participant that cannot accept its grant (already finished or
  // crashed) means hw took a different path than sim -- stop and report.
  for (std::size_t i = 0; i < trial.actions.size(); ++i) {
    const sim::Action& action = trial.actions[i];
    if (action.pid < 0 || action.pid >= k) {
      out->push_back(label + ": recorded action " + std::to_string(i) +
                     " targets out-of-range pid " +
                     std::to_string(action.pid));
      return;
    }
    HwParticipant& p = participants[static_cast<std::size_t>(action.pid)];
    if (action.kind == sim::Action::Kind::kCrash) {
      p.crashed = true;  // never resumed again; fiber abandoned
      continue;
    }
    if (p.crashed || p.fib->finished()) {
      out->push_back(label + ": grant " + std::to_string(i) + " to pid " +
                     std::to_string(action.pid) +
                     " but the hw participant already " +
                     (p.crashed ? "crashed" : "finished"));
      return;
    }
    fiber::switch_context(driver, *p.fib);
    p.fib->rethrow_failure();
  }

  // Completion drain: participants the sim replay says finished return
  // op-free from their last granted op; everyone else stays abandoned
  // (starved), exactly like a sim process with a pending op never granted.
  for (int pid = 0; pid < k; ++pid) {
    HwParticipant& p = participants[static_cast<std::size_t>(pid)];
    const bool finished_in_sim =
        reference.outcomes[static_cast<std::size_t>(pid)] !=
        sim::Outcome::kUnknown;
    if (!finished_in_sim || p.crashed) continue;
    if (!p.fib->finished()) {
      fiber::switch_context(driver, *p.fib);
      p.fib->rethrow_failure();
    }
    if (!p.fib->finished()) {
      out->push_back(label + ": pid " + std::to_string(pid) +
                     " performed a shared op beyond its recorded schedule");
      return;
    }
  }

  // Differential checks against the sim replay.
  std::uint64_t total_ops = 0;
  for (int pid = 0; pid < k; ++pid) {
    const auto i = static_cast<std::size_t>(pid);
    HwParticipant& p = participants[i];
    total_ops += p.ctx->ops();
    if (p.outcome != reference.outcomes[i]) {
      out->push_back(label + ": " +
                     pid_field("outcome", pid,
                               static_cast<std::uint64_t>(reference.outcomes[i]),
                               static_cast<std::uint64_t>(p.outcome)));
    }
    if (p.ctx->ops() != reference.steps[i]) {
      out->push_back(label + ": " + pid_field("ops", pid, reference.steps[i],
                                              p.ctx->ops()));
    }
  }
  if (total_ops != reference.total_steps) {
    out->push_back(label + ": total ops: sim " +
                   std::to_string(reference.total_steps) + ", hw " +
                   std::to_string(total_ops));
  }
}

}  // namespace

bool hw_expressible(const sim::CellTrace& cell) {
  const std::optional<algo::AlgorithmId> id =
      algo::parse_algorithm(cell.algorithm);
  if (!id) return false;
  if (!algo::supports(*id, Backend::kHw) || algo::info(*id).diagnostic) {
    return false;
  }
  // RMR accounting lives in the simulated memory, and the scheduled hw
  // drive has no notion of an adversary abort request: traces that use
  // either stay on the two sim paths.
  if (cell.rmr != rmr::RmrModel::kNone) return false;
  for (const sim::TrialTrace& trial : cell.trials) {
    for (const sim::Action& action : trial.actions) {
      if (action.kind == sim::Action::Kind::kAbort) return false;
    }
  }
  return true;
}

ConformanceReport check_cell(const sim::CellTrace& cell,
                             const ConformanceOptions& options) {
  const std::optional<algo::AlgorithmId> id =
      algo::parse_algorithm(cell.algorithm);
  RTS_REQUIRE(id.has_value(),
              ("conformance: unknown algorithm '" + cell.algorithm +
               "' in trace")
                  .c_str());
  RTS_REQUIRE(cell.k >= 1 && cell.k <= cell.n,
              "conformance: trace needs 1 <= k <= n");
  const sim::LeBuilder builder = algo::sim_builder(*id);
  sim::Kernel::Options kernel_options;
  if (cell.step_limit > 0) kernel_options.step_limit = cell.step_limit;
  kernel_options.rmr_model = cell.rmr;
  const bool hw_ok = options.hw && hw_expressible(cell);

  ConformanceReport report;
  TrialWorkspace workspace;
  const std::size_t limit =
      options.max_trials > 0 && options.max_trials < cell.trials.size()
          ? options.max_trials
          : cell.trials.size();
  for (std::size_t t = 0; t < limit; ++t) {
    const sim::TrialTrace& trial = cell.trials[t];
    // Full provenance in every mismatch line: a conformance failure in a CI
    // log must identify its trace without the reader re-running anything.
    const std::string prefix = "campaign '" + cell.campaign + "' cell " +
                               std::to_string(cell.cell_index) + " (" +
                               cell.algorithm + " vs " + cell.adversary +
                               ", k=" + std::to_string(cell.k) + ") trial " +
                               std::to_string(t);
    ++report.trials_checked;

    std::optional<sim::LeRunResult> fresh;
    std::optional<sim::LeRunResult> pooled;
    const auto run_path = [&](const char* path_label, bool use_pool)
        -> std::optional<sim::LeRunResult> {
      sim::ReplayAdversary adversary(&trial.actions);
      try {
        sim::LeRunResult result =
            use_pool ? workspace.run_le_once(cell.cell_index, builder,
                                             static_cast<int>(cell.n),
                                             static_cast<int>(cell.k),
                                             adversary, trial.trial_seed,
                                             kernel_options)
                     : sim::run_le_once(builder, static_cast<int>(cell.n),
                                        static_cast<int>(cell.k), adversary,
                                        trial.trial_seed, kernel_options);
        const std::string drift = sim::replay_mismatch(trial, result);
        if (!drift.empty()) {
          report.mismatches.push_back(prefix + " [" + path_label +
                                      " vs trace]: " + drift);
        }
        return result;
      } catch (const Error& error) {
        report.mismatches.push_back(prefix + " [" + path_label +
                                    "]: " + error.what());
        return std::nullopt;
      }
    };

    if (options.fresh_sim) {
      fresh = run_path("fresh", /*use_pool=*/false);
      if (fresh) ++report.fresh_runs;
    }
    if (options.pooled_sim) {
      pooled = run_path("pooled", /*use_pool=*/true);
      if (pooled) ++report.pooled_runs;
    }
    if (fresh && pooled) {
      const std::string diff = result_mismatch(*fresh, *pooled);
      if (!diff.empty()) {
        report.mismatches.push_back(prefix + " [fresh vs pooled]: " + diff);
      }
    }

    // The hw drive needs a trusted sim replay as its per-pid reference.
    const sim::LeRunResult* reference =
        fresh ? &*fresh : (pooled ? &*pooled : nullptr);
    if (hw_ok && reference != nullptr) {
      const std::size_t before = report.mismatches.size();
      drive_hw_scheduled(*id, cell, trial, *reference,
                         prefix + " [hw]", &report.mismatches);
      if (report.mismatches.size() == before) ++report.hw_runs;
    }
  }
  return report;
}

}  // namespace rts::exec
