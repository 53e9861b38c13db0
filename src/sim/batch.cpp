#include "sim/batch.hpp"

#include <algorithm>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/runnable_set.hpp"
#include "support/assert.hpp"

namespace rts::sim {

namespace {

class BatchEngine final : public BatchStream {
 public:
  BatchEngine(std::unique_ptr<BatchAlgorithm> algorithm,
              AdversaryFactory adversary, BatchConfig config,
              std::unique_ptr<Adversary> pooled)
      : cfg_(config),
        algo_(std::move(algorithm)),
        make_adversary_(std::move(adversary)),
        adversary_(std::move(pooled)) {
    RTS_REQUIRE(algo_ != nullptr, "batch engine requires a machine");
    RTS_REQUIRE(make_adversary_ != nullptr,
                "batch engine requires an adversary factory");
    RTS_REQUIRE(cfg_.k >= 1 && cfg_.k <= cfg_.n,
                "need 1 <= k <= n participants");
    cfg_.lanes = std::clamp(cfg_.lanes, 1, kMaxBatchLanes);
    const auto k = static_cast<std::size_t>(cfg_.k);
    values_.assign(algo_->num_registers(), 0);
    touched_.assign(algo_->num_registers(), 0);
    rngs_.reserve(k);
    for (std::size_t i = 0; i < k; ++i) rngs_.emplace_back(0);
    steps_.assign(k, 0);
    outcomes_.assign(k, Outcome::kUnknown);
    crashed_.assign(k, 0);
    abort_requested_.assign(k, 0);
    pending_.assign(k, BatchAction{});
  }

  void run_block(int first_trial, int count,
                 exec::TrialSummary* out) override {
    RTS_REQUIRE(count >= 1 && count <= cfg_.lanes, "block exceeds lane count");
    for (int i = 0; i < count; ++i) out[i] = run_trial(first_trial + i);
  }

  // What fold_le_trial asks of the trial just run.
  std::uint64_t steps(int pid) const { return steps_[index(pid)]; }
  bool crashed(int pid) const { return crashed_[index(pid)] != 0; }
  bool abort_requested(int pid) const {
    return abort_requested_[index(pid)] != 0;
  }
  int abort_requests() const { return abort_requests_; }
  std::uint64_t total_steps() const { return total_steps_; }
  std::size_t regs_touched() const { return dirty_.size(); }
  std::uint64_t rmr_total() const { return 0; }  // machines run RMR-free
  std::uint64_t rmr_max() const { return 0; }

 private:
  static std::size_t index(int pid) { return static_cast<std::size_t>(pid); }

  /// Trial `trial` of the cell's stream, seeded exactly as the scalar
  /// chain seeds it: trial_seed(seed0, t), adversary_seed(trial_seed), and
  /// derive_seed(trial_seed, pid) per participant.
  exec::TrialSummary run_trial(int trial) {
    const std::uint64_t seed = trial_seed(cfg_.seed0, trial);
    const std::uint64_t scheduler_seed = adversary_seed(seed);
    // The pooled-adversary step of TrialWorkspace::trial_adversary.
    if (adversary_ == nullptr || !adversary_->reseed(scheduler_seed)) {
      adversary_ = make_adversary_(scheduler_seed);
    }
    RTS_REQUIRE(adversary_->clazz() == AdversaryClass::kOblivious,
                "the step-machine engine serves oblivious adversaries only");
    rewind();
    // Kernel::start(): every prologue runs to its first announcement, in
    // pid order, so the runnable set fills in ascending order.
    for (int pid = 0; pid < cfg_.k; ++pid) {
      rngs_[index(pid)].reseed(
          support::derive_seed(seed, static_cast<std::uint64_t>(pid)));
      const BatchAction action = algo_->start(pid, rngs_[index(pid)]);
      if (action.kind == BatchAction::Kind::kFinish) {
        outcomes_[index(pid)] = action.outcome;
      } else {
        pending_[index(pid)] = action;
        runnable_.push_back(pid);
      }
    }
    // Kernel::run(), decision for decision.
    bool completed = true;
    while (!runnable_.empty()) {
      if (total_steps_ >= cfg_.step_limit) {
        completed = false;
        break;
      }
      const Action action = adversary_->next(
          KernelView(runnable_, steps_.data(), total_steps_, cfg_.k));
      switch (action.kind) {
        case Action::Kind::kStep:
          grant(action.pid);
          break;
        case Action::Kind::kCrash:
          RTS_ASSERT_MSG(runnable_.contains(action.pid),
                         "crash of a process that already finished or crashed");
          crashed_[index(action.pid)] = 1;
          runnable_.remove(action.pid);
          break;
        case Action::Kind::kAbort:
          // Kernel::abort_request: idempotent, and a no-op once the pid
          // finished or crashed.  No machine polls the flag; it only feeds
          // the fold's abort rules.
          if (runnable_.contains(action.pid) &&
              abort_requested_[index(action.pid)] == 0) {
            abort_requested_[index(action.pid)] = 1;
            ++abort_requests_;
          }
          break;
      }
    }
    return fold_le_trial(*this, cfg_.k, outcomes_,
                         algo_->declared_registers(), completed,
                         /*abortable=*/false);
  }

  /// Returns the bank rows and per-pid state the previous trial dirtied to
  /// their freshly built values -- the analog of Kernel::rewind, and like
  /// SimMemory::reset_values O(touched).
  void rewind() {
    for (const std::uint32_t slot : dirty_) {
      values_[slot] = 0;
      touched_[slot] = 0;
    }
    dirty_.clear();
    std::fill(steps_.begin(), steps_.end(), 0);
    std::fill(outcomes_.begin(), outcomes_.end(), Outcome::kUnknown);
    std::fill(crashed_.begin(), crashed_.end(), 0);
    std::fill(abort_requested_.begin(), abort_requested_.end(), 0);
    total_steps_ = 0;
    abort_requests_ = 0;
    runnable_.reset(cfg_.k);
  }

  /// Kernel::grant: executes pid's pending op against the bank, then
  /// advances the machine to its next announcement or completion.
  void grant(int pid) {
    RTS_ASSERT_MSG(runnable_.contains(pid), "grant to non-runnable process");
    const BatchAction& op = pending_[index(pid)];
    if (touched_[op.reg] == 0) {
      touched_[op.reg] = 1;
      dirty_.push_back(op.reg);
    }
    std::uint64_t result = 0;
    if (op.kind == BatchAction::Kind::kRead) {
      result = values_[op.reg];
    } else {
      values_[op.reg] = op.value;
    }
    ++total_steps_;
    ++steps_[index(pid)];
    const BatchAction next = algo_->resume(pid, rngs_[index(pid)], result);
    if (next.kind == BatchAction::Kind::kFinish) {
      outcomes_[index(pid)] = next.outcome;
      runnable_.remove(pid);
    } else {
      pending_[index(pid)] = next;
    }
  }

  BatchConfig cfg_;
  std::unique_ptr<BatchAlgorithm> algo_;
  AdversaryFactory make_adversary_;
  std::unique_ptr<Adversary> adversary_;  // pooled, reseeded per trial

  std::vector<std::uint64_t> values_;  // one word per register slot
  std::vector<std::uint8_t> touched_;  // per slot: written or read this trial
  std::vector<std::uint32_t> dirty_;   // the touched slots, in touch order

  // Per pid.
  std::vector<support::PrngSource> rngs_;
  std::vector<std::uint64_t> steps_;
  std::vector<Outcome> outcomes_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> abort_requested_;
  std::vector<BatchAction> pending_;

  RunnableSet runnable_;
  std::uint64_t total_steps_ = 0;
  int abort_requests_ = 0;
};

}  // namespace

std::unique_ptr<BatchStream> make_batch_stream(
    std::unique_ptr<BatchAlgorithm> algorithm, AdversaryFactory adversary,
    const BatchConfig& config, std::unique_ptr<Adversary> pooled) {
  return std::make_unique<BatchEngine>(std::move(algorithm),
                                       std::move(adversary), config,
                                       std::move(pooled));
}

}  // namespace rts::sim
