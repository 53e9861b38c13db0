#include "sim/batch.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "sim/runnable_set.hpp"
#include "sim/runner.hpp"
#include "support/assert.hpp"

namespace rts::sim {

namespace {

/// Replica of one scheduler's per-trial state; which fields are live
/// depends on BatchConfig::sched.
struct LaneSched {
  support::PrngSource rng{0};         // random / crash schedule stream
  support::PrngSource budget_rng{0};  // crash budgets (~seed stream)
  std::vector<std::uint64_t> budgets;  // drawn lazily, in pid order
  int rr_next = 0;                     // round-robin cursor
};

class BatchEngine final : public BatchStream {
 public:
  BatchEngine(std::unique_ptr<BatchAlgorithm> algorithm, BatchConfig config)
      : cfg_(config), algo_(std::move(algorithm)) {
    RTS_REQUIRE(algo_ != nullptr, "batch engine requires a machine");
    RTS_REQUIRE(cfg_.k >= 1 && cfg_.k <= cfg_.n,
                "need 1 <= k <= n participants");
    cfg_.lanes = std::clamp(cfg_.lanes, 1, kMaxBatchLanes);
    lanes_ = cfg_.lanes;
    k_ = cfg_.k;
    num_regs_ = algo_->num_registers();
    const auto ln = static_cast<std::size_t>(lanes_);
    const auto lk = ln * static_cast<std::size_t>(k_);
    values_.assign(num_regs_ * ln, 0);
    touched_mask_.assign(num_regs_, 0);
    touched_count_.assign(ln, 0);
    rngs_.reserve(lk);
    for (std::size_t i = 0; i < lk; ++i) rngs_.emplace_back(0);
    steps_.assign(lk, 0);
    outcomes_.assign(lk, Outcome::kUnknown);
    crashed_.assign(lk, 0);
    pending_.assign(lk, BatchAction{});
    runnable_.resize(ln);
    scheds_.resize(ln);
    totals_.assign(ln, 0);
    completed_.assign(ln, 1);
  }

  std::size_t declared_registers() const override {
    return algo_->declared_registers();
  }

  void run_block(int first_trial, int count,
                 exec::TrialSummary* out) override {
    RTS_REQUIRE(count >= 1 && count <= lanes_, "block exceeds lane count");
    reset_bank();
    std::uint64_t active = 0;
    for (int lane = 0; lane < count; ++lane) {
      seed_lane(lane, first_trial + lane);
      if (!runnable_[static_cast<std::size_t>(lane)].empty()) {
        active |= 1ULL << lane;
      }
    }
    // Lockstep pass loop: one adversary decision per live lane per pass;
    // retired lanes drop out of the mask and cost nothing.
    while (active != 0) {
      std::uint64_t live = active;
      while (live != 0) {
        const int lane = std::countr_zero(live);
        live &= live - 1;
        step_lane(lane, &active);
      }
    }
    for (int lane = 0; lane < count; ++lane) {
      summarize_lane(lane, &out[lane]);
    }
  }

 private:
  /// Rewinds every register row dirtied by the previous block to its
  /// freshly-built state (value 0, untouched) -- the batch analog of
  /// SimMemory::reset_values, and likewise O(touched).
  void reset_bank() {
    const auto ln = static_cast<std::size_t>(lanes_);
    for (const std::uint32_t slot : dirty_slots_) {
      std::fill_n(values_.begin() + static_cast<std::ptrdiff_t>(slot * ln),
                  ln, 0);
      touched_mask_[slot] = 0;
    }
    dirty_slots_.clear();
    std::fill(touched_count_.begin(), touched_count_.end(), 0u);
  }

  /// Reseeds lane state for trial `trial` of the cell's stream -- exactly
  /// the scalar chain: trial_seed(seed0, t), adversary_seed(trial_seed),
  /// derive_seed(trial_seed, pid) per participant -- then runs every pid's
  /// prologue to its first announcement, in pid order (Kernel::start()).
  void seed_lane(int lane, int trial) {
    const std::uint64_t ts = trial_seed(cfg_.seed0, trial);
    const std::uint64_t as = adversary_seed(ts);
    const std::size_t base =
        static_cast<std::size_t>(lane) * static_cast<std::size_t>(k_);
    LaneSched& sched = scheds_[static_cast<std::size_t>(lane)];
    switch (cfg_.sched) {
      case BatchSched::kUniformRandom:
        sched.rng.reseed(as);
        break;
      case BatchSched::kRoundRobin:
        sched.rr_next = 0;
        break;
      case BatchSched::kSequential:
        break;
      case BatchSched::kCrashAfterOps:
        sched.rng.reseed(as);
        sched.budget_rng.reseed(~as);
        sched.budgets.clear();
        break;
    }
    algo_->reset_trial(lane);
    RunnableSet& run = runnable_[static_cast<std::size_t>(lane)];
    run.reset(k_);
    totals_[static_cast<std::size_t>(lane)] = 0;
    completed_[static_cast<std::size_t>(lane)] = 1;
    for (int pid = 0; pid < k_; ++pid) {
      const std::size_t idx = base + static_cast<std::size_t>(pid);
      rngs_[idx].reseed(
          support::derive_seed(ts, static_cast<std::uint64_t>(pid)));
      steps_[idx] = 0;
      outcomes_[idx] = Outcome::kUnknown;
      crashed_[idx] = 0;
    }
    for (int pid = 0; pid < k_; ++pid) {
      const std::size_t idx = base + static_cast<std::size_t>(pid);
      const BatchAction action = algo_->start(lane, pid, rngs_[idx]);
      if (action.kind == BatchAction::Kind::kFinish) {
        outcomes_[idx] = action.outcome;
      } else {
        pending_[idx] = action;
        run.push_back(pid);
      }
    }
  }

  std::uint64_t crash_budget(LaneSched& sched, int pid) {
    // Mirrors CrashAfterOpsAdversary::budget: budgets are drawn lazily in
    // pid order from the dedicated ~seed stream.
    while (sched.budgets.size() <= static_cast<std::size_t>(pid)) {
      sched.budgets.push_back(
          cfg_.crash_min_ops +
          sched.budget_rng.draw(cfg_.crash_max_ops - cfg_.crash_min_ops + 1));
    }
    return sched.budgets[static_cast<std::size_t>(pid)];
  }

  /// One kernel-loop iteration for `lane`: the empty-runnable and
  /// step-limit checks, one adversary decision, and its grant or crash --
  /// in exactly Kernel::run's order.
  void step_lane(int lane, std::uint64_t* active) {
    const std::uint64_t lane_bit = 1ULL << lane;
    RunnableSet& run = runnable_[static_cast<std::size_t>(lane)];
    if (run.empty()) {
      *active &= ~lane_bit;
      return;
    }
    if (totals_[static_cast<std::size_t>(lane)] >= cfg_.step_limit) {
      completed_[static_cast<std::size_t>(lane)] = 0;  // starved, not done
      *active &= ~lane_bit;
      return;
    }
    LaneSched& sched = scheds_[static_cast<std::size_t>(lane)];
    const std::size_t base =
        static_cast<std::size_t>(lane) * static_cast<std::size_t>(k_);
    int pid = -1;
    bool crash = false;
    switch (cfg_.sched) {
      case BatchSched::kUniformRandom:
        pid = run.select(static_cast<int>(
            sched.rng.draw(static_cast<std::uint64_t>(run.count()))));
        break;
      case BatchSched::kRoundRobin:
        for (int attempts = 0; attempts < k_; ++attempts) {
          const int candidate = sched.rr_next;
          sched.rr_next = (sched.rr_next + 1) % k_;
          if (run.contains(candidate)) {
            pid = candidate;
            break;
          }
        }
        if (pid < 0) pid = run.first();
        break;
      case BatchSched::kSequential:
        pid = run.first();
        break;
      case BatchSched::kCrashAfterOps:
        pid = run.select(static_cast<int>(
            sched.rng.draw(static_cast<std::uint64_t>(run.count()))));
        if (run.count() > 1 &&
            steps_[base + static_cast<std::size_t>(pid)] >=
                crash_budget(sched, pid)) {
          crash = true;
        }
        break;
    }
    const std::size_t idx = base + static_cast<std::size_t>(pid);
    if (crash) {
      crashed_[idx] = 1;
      run.remove(pid);
      if (run.empty()) *active &= ~lane_bit;  // completed stays true
      return;
    }
    // Grant: execute the pending op against the SoA bank, then advance the
    // machine to its next announcement or completion.
    const BatchAction& op = pending_[idx];
    const std::size_t cell = static_cast<std::size_t>(op.reg) *
                                 static_cast<std::size_t>(lanes_) +
                             static_cast<std::size_t>(lane);
    touch(op.reg, lane);
    std::uint64_t result = 0;
    if (op.kind == BatchAction::Kind::kRead) {
      result = values_[cell];
    } else {
      values_[cell] = op.value;
    }
    ++totals_[static_cast<std::size_t>(lane)];
    ++steps_[idx];
    const BatchAction next = algo_->resume(lane, pid, rngs_[idx], result);
    if (next.kind == BatchAction::Kind::kFinish) {
      outcomes_[idx] = next.outcome;
      run.remove(pid);
      if (run.empty()) *active &= ~lane_bit;
    } else {
      pending_[idx] = next;
    }
  }

  void touch(std::uint32_t reg, int lane) {
    std::uint64_t& mask = touched_mask_[reg];
    const std::uint64_t bit = 1ULL << lane;
    if ((mask & bit) == 0) {
      if (mask == 0) dirty_slots_.push_back(reg);  // first lane: needs reset
      mask |= bit;
      ++touched_count_[static_cast<std::size_t>(lane)];
    }
  }

  /// Folds lane state straight into the scalar-identical TrialSummary --
  /// the same field derivations as sim::summarize_le_trial, with the
  /// batch-ineligible branches (aborts, RMR models) statically absent.
  void summarize_lane(int lane, exec::TrialSummary* out) const {
    exec::TrialSummary summary;
    summary.backend = exec::Backend::kSim;
    summary.k = k_;
    const std::size_t base =
        static_cast<std::size_t>(lane) * static_cast<std::size_t>(k_);
    std::uint64_t max_steps = 0;
    int winners = 0;
    bool crash_free = true;
    for (int pid = 0; pid < k_; ++pid) {
      const std::size_t idx = base + static_cast<std::size_t>(pid);
      max_steps = std::max(max_steps, steps_[idx]);
      if (crashed_[idx] != 0) crash_free = false;
      switch (outcomes_[idx]) {
        case Outcome::kWin:
          ++winners;
          break;
        case Outcome::kUnknown:
          ++summary.unfinished;
          break;
        case Outcome::kLose:
        case Outcome::kAbort:  // unreachable: batch machines never abort
          break;
      }
    }
    summary.max_steps = max_steps;
    summary.total_steps = totals_[static_cast<std::size_t>(lane)];
    summary.regs_touched = touched_count_[static_cast<std::size_t>(lane)];
    summary.declared_registers = algo_->declared_registers();
    summary.crash_free = crash_free;
    summary.completed = completed_[static_cast<std::size_t>(lane)] != 0;
    summary.latency = max_steps;
    if (winners > 1) {
      summary.first_violation =
          "safety: more than one winner (" + std::to_string(winners) + ")";
    } else if (summary.completed && crash_free && winners != 1) {
      summary.first_violation =
          "liveness: crash-free complete run without exactly one winner";
    }
    *out = std::move(summary);
  }

  BatchConfig cfg_;
  std::unique_ptr<BatchAlgorithm> algo_;
  int lanes_ = 0;
  int k_ = 0;
  std::size_t num_regs_ = 0;

  // Structure-of-arrays register bank: slot-major, lane-minor, so the
  // lanes of one register sit in adjacent words.
  std::vector<std::uint64_t> values_;        // num_regs * lanes
  std::vector<std::uint64_t> touched_mask_;  // per slot, one bit per lane
  std::vector<std::uint32_t> dirty_slots_;   // slots any lane touched
  std::vector<std::uint32_t> touched_count_; // per lane: distinct slots

  // Per (lane, pid) machine plumbing, lane-major.
  std::vector<support::PrngSource> rngs_;
  std::vector<std::uint64_t> steps_;
  std::vector<Outcome> outcomes_;
  std::vector<std::uint8_t> crashed_;
  std::vector<BatchAction> pending_;

  // Per lane.
  std::vector<RunnableSet> runnable_;
  std::vector<LaneSched> scheds_;
  std::vector<std::uint64_t> totals_;
  std::vector<std::uint8_t> completed_;
};

}  // namespace

std::unique_ptr<BatchStream> make_batch_stream(
    std::unique_ptr<BatchAlgorithm> algorithm, const BatchConfig& config) {
  return std::make_unique<BatchEngine>(std::move(algorithm), config);
}

}  // namespace rts::sim
