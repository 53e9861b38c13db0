// Tests for the one pid-ordered runnable set (sim/runnable_set.hpp) shared
// by the scalar kernel and the step-machine engine: a property test of the
// set against a reference vector, and an audit of the kernel's
// incrementally maintained set against a scan of per-process state after
// every scheduling action -- across the sim catalogue, every batch-relevant
// scheduler, the 64-pid word boundaries, and pooled trials that follow a
// crashed or step-limit-starved one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "exec/workspace.hpp"
#include "sim/adversary.hpp"
#include "sim/kernel.hpp"
#include "sim/runnable_set.hpp"
#include "sim/runner.hpp"
#include "support/rng.hpp"

namespace rts {
namespace {

TEST(RunnableSet, MatchesAReferenceSetUnderRandomRemovals) {
  support::PrngSource rng(0x5e7ec7ULL);
  for (const int k : {0, 1, 2, 63, 64, 65, 200, 1024}) {
    sim::RunnableSet set;
    set.reset(k);
    std::vector<int> reference;
    for (int pid = 0; pid < k; ++pid) {
      set.push_back(pid);
      reference.push_back(pid);
    }
    for (;;) {
      ASSERT_EQ(set.pids(), reference) << "k=" << k;
      ASSERT_EQ(set.empty(), reference.empty());
      std::vector<bool> member(static_cast<std::size_t>(k), false);
      for (const int pid : reference) {
        member[static_cast<std::size_t>(pid)] = true;
      }
      for (int pid = 0; pid < k; ++pid) {
        ASSERT_EQ(set.contains(pid), member[static_cast<std::size_t>(pid)])
            << "k=" << k << " pid=" << pid;
      }
      // Pids outside the universe are never members.
      ASSERT_FALSE(set.contains(-1));
      ASSERT_FALSE(set.contains(k));
      if (reference.empty()) break;
      const auto victim = static_cast<std::size_t>(rng.draw(reference.size()));
      set.remove(reference[victim]);
      ASSERT_FALSE(set.contains(reference[victim]));
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    // Reusable: reset() empties it for a refill, as every trial does.
    set.reset(k);
    ASSERT_TRUE(set.empty());
    for (int pid = 1; pid < k; pid += 2) set.push_back(pid);
    ASSERT_EQ(set.pids().size(), static_cast<std::size_t>(k / 2));
    if (k >= 2) {
      ASSERT_EQ(set.pids().front(), 1);
    }
    ASSERT_FALSE(set.contains(0));
  }
}

// --- The kernel's set after every action ----------------------------------

/// First disagreement between the kernel's runnable set (as the view
/// exposes it) and a pid-ordered scan of per-process state.
struct AuditLog {
  std::uint64_t audits = 0;
  std::string first_mismatch;

  void check(const sim::Kernel& kernel, const sim::KernelView& view,
             const std::string& where) {
    ++audits;
    if (!first_mismatch.empty()) return;
    std::vector<int> scan;
    for (int pid = 0; pid < kernel.num_processes(); ++pid) {
      const bool runnable = kernel.runnable(pid);
      if (runnable) scan.push_back(pid);
      if (view.is_runnable(pid) != runnable) {
        first_mismatch = where + ": is_runnable(" + std::to_string(pid) +
                         ") disagrees with the process state";
        return;
      }
    }
    if (view.runnable() != scan) {
      first_mismatch = where + ": runnable() differs from the pid scan";
    }
  }
};

/// Audits the kernel before every decision, then defers to a catalogued
/// scheduler.  It declares the adaptive class to reach the kernel through
/// the view; the wrapped schedulers read only runnable pids and step
/// counts, which every class sees, so their decisions are unchanged.
class AuditingAdversary final : public sim::Adversary {
 public:
  AuditingAdversary(std::unique_ptr<sim::Adversary> inner, AuditLog* log,
                    std::string label)
      : inner_(std::move(inner)), log_(log), label_(std::move(label)) {}

  sim::AdversaryClass clazz() const override {
    return sim::AdversaryClass::kAdaptive;
  }

  sim::Action next(const sim::KernelView& view) override {
    log_->check(view.adaptive_full_access(), view, label_);
    return inner_->next(view);
  }

  bool reseed(std::uint64_t seed) override { return inner_->reseed(seed); }

 private:
  std::unique_ptr<sim::Adversary> inner_;
  AuditLog* log_;
  std::string label_;
};

constexpr algo::AdversaryId kSchedulers[] = {
    algo::AdversaryId::kUniformRandom, algo::AdversaryId::kRoundRobin,
    algo::AdversaryId::kSequential, algo::AdversaryId::kCrashAfterOps,
    algo::AdversaryId::kAbortAfterOps};
constexpr int kContentions[] = {1, 2, 63, 64, 65, 200};

std::vector<algo::AlgorithmId> sim_algorithms() {
  std::vector<algo::AlgorithmId> out;
  for (const algo::AlgoInfo& algorithm : algo::all_algorithms()) {
    if (algo::supports(algorithm.id, exec::Backend::kSim)) {
      out.push_back(algorithm.id);
    }
  }
  return out;
}

TEST(KernelRunnableSet, MatchesAProcessScanAfterEveryAction) {
  for (const algo::AlgorithmId algorithm : sim_algorithms()) {
    const sim::LeBuilder builder = algo::sim_builder(algorithm);
    for (const algo::AdversaryId scheduler : kSchedulers) {
      for (const int k : kContentions) {
        const std::string label = std::string(algo::info(algorithm).name) +
                                  " / " + algo::info(scheduler).name +
                                  " / k=" + std::to_string(k);
        const std::uint64_t seed = 0xa0d17ULL + static_cast<std::uint64_t>(k);
        // A test-owned kernel, so the state after the last action is
        // audited too.
        sim::Kernel kernel;
        const sim::BuiltLe le = builder(kernel, k);
        for (int pid = 0; pid < k; ++pid) {
          kernel.add_process(
              [&le](sim::Context& ctx) { le.elect(ctx); },
              std::make_unique<support::PrngSource>(
                  support::derive_seed(seed, static_cast<std::uint64_t>(pid))));
        }
        AuditLog log;
        AuditingAdversary audit(algo::adversary_factory(scheduler)(seed), &log,
                                label);
        const bool completed = kernel.run(audit);
        const sim::KernelView final_view(kernel,
                                         sim::AdversaryClass::kAdaptive);
        log.check(kernel, final_view, label + " (final)");
        EXPECT_EQ(log.first_mismatch, "");
        EXPECT_TRUE(completed) << label;
        EXPECT_TRUE(kernel.all_done()) << label;
        EXPECT_GE(log.audits, kernel.total_steps()) << label;
      }
    }
  }
}

TEST(KernelRunnableSet, PooledTrialAfterACrashedOrStarvedOneStartsConsistent) {
  // A crashed trial removes pids through crash(), a starved one leaves the
  // set non-empty; either way the next trial on the same pooled stream must
  // start from a set rebuilt by rewind() + start().
  sim::Kernel::Options starving;
  starving.step_limit = 7;
  int crashed_then_reused = 0;
  for (const algo::AlgorithmId algorithm : sim_algorithms()) {
    const sim::LeBuilder builder = algo::sim_builder(algorithm);
    for (const int k : kContentions) {
      const std::string label = std::string(algo::info(algorithm).name) +
                                " / k=" + std::to_string(k);
      AuditLog log;
      const auto audited = [&log, &label](algo::AdversaryId scheduler) {
        const sim::AdversaryFactory inner = algo::adversary_factory(scheduler);
        return sim::AdversaryFactory(
            [inner, &log, &label, scheduler](std::uint64_t seed) {
              return std::make_unique<AuditingAdversary>(
                  inner(seed), &log,
                  label + " / " + algo::info(scheduler).name);
            });
      };
      exec::TrialWorkspace workspace;
      const sim::AdversaryFactory crash =
          audited(algo::AdversaryId::kCrashAfterOps);
      const sim::AdversaryFactory random =
          audited(algo::AdversaryId::kUniformRandom);
      for (int trial = 0; trial < 3; ++trial) {
        const exec::TrialSummary summary = workspace.run_le_trial_summary(
            /*key=*/1, builder, k, k, crash, trial, 31);
        EXPECT_TRUE(summary.completed) << label;
        if (trial < 2 && !summary.crash_free) ++crashed_then_reused;
      }
      for (int trial = 0; trial < 2; ++trial) {
        const exec::TrialSummary summary = workspace.run_le_trial_summary(
            /*key=*/2, builder, k, k, random, trial, 31, starving);
        if (k >= 63) {
          EXPECT_FALSE(summary.completed) << label;
        }
      }
      EXPECT_EQ(log.first_mismatch, "");
      EXPECT_GT(log.audits, 0u) << label;
    }
  }
  // Not every cell crashes (short elections finish inside the op budget),
  // but the catalogue as a whole must reuse streams after crashes.
  EXPECT_GT(crashed_then_reused, 0);
}

}  // namespace
}  // namespace rts
