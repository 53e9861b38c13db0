// HwPlatform: binds the algorithm templates to real hardware -- cache-line
// padded std::atomic registers (seq_cst, per the library's "sequentially
// consistent by default" policy) and ordinary threads.
//
// The Context counts shared-memory operations (so hardware runs report the
// same step metric as the simulator), polices each one against the
// election's step budget, deadline and fault stall, and implements the
// combiner's fiber hooks: on hardware there is no kernel to suspend to, so
// yield-after-op switches directly from the child fiber back to the
// coordinator.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "fiber/fiber.hpp"
#include "sim/types.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace rts::hw {

/// Thrown by Context::on_op when a participant exceeds its shared-op budget
/// (the hw step-limit watchdog).  The harness catches it on the participant
/// thread: the trial finishes with that participant unfinished and the run
/// marked incomplete, instead of a diverging algorithm hanging the campaign.
struct StepLimitReached {};

/// Thrown by Context::on_op / charge_child_op when an op completes at or
/// after the context's armed deadline.  Like StepLimitReached it unwinds on
/// the participant's own thread; the harness catches it and reports the
/// election timed out.  Cancellation is cooperative: a participant notices
/// at its next shared op, so a sleeping (stalled) participant cancels only
/// once it wakes.
struct ElectionCancelled {};

/// One register on its own cache line to keep the step counts honest (no
/// false sharing between unrelated registers).
struct alignas(64) RegisterCell {
  std::atomic<std::uint64_t> value{0};
};

/// Stable-address pool of registers; allocation is thread-safe because the
/// lazily materialized structures (RatRace tree) allocate from racing
/// threads.
class RegisterPool {
 public:
  RegisterCell* alloc() {
    std::scoped_lock lock(mu_);
    cells_.emplace_back();
    return &cells_.back();
  }

  std::size_t allocated() const {
    std::scoped_lock lock(mu_);
    return cells_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<RegisterCell> cells_;  // deque: stable addresses
};

struct HwPlatform {
  using Mutex = std::mutex;

  class Context;

  class Reg {
   public:
    Reg() = default;
    explicit Reg(RegisterCell* cell) : cell_(cell) {}

    std::uint64_t read(Context& ctx, sim::OpTags tags = {}) const;
    void write(Context& ctx, std::uint64_t value, sim::OpTags tags = {}) const;

   private:
    RegisterCell* cell_ = nullptr;
  };

  class Arena {
   public:
    explicit Arena(RegisterPool& pool) : pool_(&pool) {}

    // string_view: register names are sim-side debugging metadata; the hw
    // build path (lazily materialized structures allocate under contention)
    // must not pay a std::string copy per register.
    Reg reg(std::string_view /*name*/) { return Reg(pool_->alloc()); }
    std::size_t allocated() const { return pool_->allocated(); }

   private:
    RegisterPool* pool_;
  };

  class Context {
   public:
    Context(int pid, support::RandomSource& rng)
        : pid_(pid),
          rng_(&rng),
          root_slot_(std::make_unique<fiber::ExecutionContext>()),
          exec_slot_(root_slot_.get()) {}

    /// Child-fiber context used by the combiner.
    Context(int pid, support::RandomSource& rng,
            fiber::ExecutionContext& slot)
        : pid_(pid), rng_(&rng), exec_slot_(&slot) {}

    Context(Context&&) = default;
    Context& operator=(Context&&) = default;

    int pid() const { return pid_; }
    support::RandomSource& rng() { return *rng_; }
    std::uint64_t flip() { return rng_->flip(); }
    std::uint64_t uniform_below(std::uint64_t n) { return rng_->draw(n); }
    std::uint64_t geometric_trunc(std::uint64_t ell) {
      return rng_->geometric_trunc(ell);
    }
    void publish_stage(std::uint64_t tag) { stage_ = tag; }
    std::uint64_t stage() const { return stage_; }

    void set_yield_after_op(fiber::ExecutionContext* parent) {
      yield_after_op_ = parent;
    }
    fiber::ExecutionContext& exec_slot() { return *exec_slot_; }

    /// Arms the step-limit watchdog: an op throws StepLimitReached once this
    /// context has performed more than `limit` shared ops -- a divergence
    /// abort knob, not a precise step meter.  Root contexts only, like the
    /// deadline and the stall: a combiner's child ops are charged on the
    /// coordinator's (root) stack via charge_child_op, so one budget covers
    /// the whole election.
    void set_step_limit(std::uint64_t limit) { step_limit_ = limit; }
    std::uint64_t step_limit() const { return step_limit_; }

    /// Arms the attempt's wall-clock deadline: once an op completes at or
    /// after `deadline`, the context throws ElectionCancelled.  An unarmed
    /// context never reads the clock.  Root contexts only.
    void set_deadline(std::chrono::steady_clock::time_point deadline) {
      deadline_ = deadline;
    }

    /// Arms a one-shot fault-injection stall: once this context's
    /// `after_op`-th shared op (own or child) completes, sleep `us`
    /// microseconds before returning to the algorithm (a mid-election GC
    /// pause / preemption stand-in).  Root contexts only.
    void set_stall(std::uint64_t after_op, std::uint32_t us) {
      stall_after_op_ = after_op;
      stall_us_ = us;
    }

    /// Total shared ops attributed to this context, including ops its child
    /// fibers performed (charged by the combiner's coordinator loop).
    std::uint64_t ops() const { return ops_ + child_ops_; }

    /// Charges one child-fiber shared op to this context.  Called by the
    /// combiner coordinator right after a child yields (one yield = one
    /// shared op), so the op answers to the same budget, deadline and stall
    /// as an own op, on the coordinator's stack.  The conformance harness's
    /// scheduled drive sets yield_after_op_ on a root context and needs
    /// exactly one yield per shared op -- child ops included -- to hold a
    /// recorded schedule.
    void charge_child_op() {
      ++child_ops_;
      police();
    }

    /// Called by Reg after every shared-memory operation.
    void on_op() {
      ++ops_;
      police();
    }

   private:
    static constexpr std::chrono::steady_clock::time_point kUnarmed =
        std::chrono::steady_clock::time_point::max();

    /// Runs after every op, own or child, in this order: the step budget,
    /// the deadline, the one-shot stall, the yield.
    void police() {
      if (ops() > step_limit_) throw StepLimitReached{};
      if (deadline_ != kUnarmed &&
          std::chrono::steady_clock::now() >= deadline_) {
        throw ElectionCancelled{};
      }
      if (stall_us_ != 0 && ops() == stall_after_op_) {
        const std::uint32_t us = stall_us_;
        stall_us_ = 0;  // one-shot
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      }
      if (yield_after_op_ != nullptr) {
        fiber::switch_context(*exec_slot_, *yield_after_op_);
      }
    }

    int pid_;
    support::RandomSource* rng_;
    // The thread's own continuation (allocated only for root contexts, so
    // Context stays movable for std::optional storage in the combiner).
    std::unique_ptr<fiber::ExecutionContext> root_slot_;
    fiber::ExecutionContext* exec_slot_;
    fiber::ExecutionContext* yield_after_op_ = nullptr;
    std::chrono::steady_clock::time_point deadline_ = kUnarmed;
    std::uint64_t ops_ = 0;
    std::uint64_t child_ops_ = 0;
    std::uint64_t step_limit_ = UINT64_MAX;
    std::uint64_t stall_after_op_ = 0;
    std::uint32_t stall_us_ = 0;
    std::uint64_t stage_ = 0;
  };

  /// Child contexts carry no step limit, deadline or stall of their own:
  /// the coordinator charges each child op to the parent (charge_child_op),
  /// so one policing routine on the parent's stack covers the election.
  static Context child_context(Context& parent,
                               fiber::ExecutionContext& slot) {
    return Context(parent.pid(), parent.rng(), slot);
  }
};

inline std::uint64_t HwPlatform::Reg::read(Context& ctx,
                                           sim::OpTags /*tags*/) const {
  RTS_ASSERT(cell_ != nullptr);
  const std::uint64_t v = cell_->value.load(std::memory_order_seq_cst);
  ctx.on_op();
  return v;
}

inline void HwPlatform::Reg::write(Context& ctx, std::uint64_t value,
                                   sim::OpTags /*tags*/) const {
  RTS_ASSERT(cell_ != nullptr);
  cell_->value.store(value, std::memory_order_seq_cst);
  ctx.on_op();
}

}  // namespace rts::hw
