// Adversary framework.
//
// The paper distinguishes four adversary classes by what they may observe
// when deciding which process takes the next step:
//
//   * adaptive            -- everything, including past coin flips.
//   * location-oblivious  -- everything in the past, plus the kind and
//                            argument of pending ops, but NOT the target
//                            register of a pending op whose location was
//                            chosen at random (Fig. 1, line 3/4).
//   * R/W-oblivious       -- everything in the past, plus target registers of
//                            pending ops, but NOT whether a pending op is a
//                            read or a write when that was chosen at random
//                            (the Alistarh-Aspnes sifting coin).
//   * oblivious           -- must fix the whole schedule in advance.
//
// The KernelView enforces these rules mechanically: the adversary receives a
// view parameterized by its declared class, and hidden fields come back as
// std::nullopt.  Deterministically-decided pending fields are visible to
// every non-oblivious adversary -- they are inferable from the visible past
// plus the program text anyway, so hiding them would not model anything.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/runnable_set.hpp"
#include "sim/types.hpp"
#include "support/assert.hpp"

namespace rts::sim {

enum class AdversaryClass : std::uint8_t {
  kOblivious,
  kLocationOblivious,
  kRWOblivious,
  kAdaptive,
};

const char* to_string(AdversaryClass clazz);

/// What an adversary of a given class may see of one pending operation.
struct PendingOpView {
  int pid = -1;
  std::optional<OpKind> kind;
  std::optional<RegId> reg;
  std::optional<std::uint64_t> value;  // write argument, when kind is visible
};

/// Class-filtered window onto the kernel, handed to Adversary::next().
class KernelView {
 public:
  KernelView(const Kernel& kernel, AdversaryClass clazz);
  /// A kernel-less view for the step-machine engine (sim/batch.hpp), over
  /// its runnable set, its per-pid step counts (`steps[pid]`), its total
  /// step count, and its process count.  It offers only the oblivious
  /// class: pending(pid) carries the pid alone, and adaptive_full_access()
  /// stays refused.
  KernelView(const RunnableSet& runnable, const std::uint64_t* steps,
             std::uint64_t total_steps, int num_processes);

  AdversaryClass clazz() const { return clazz_; }
  int num_processes() const { return num_processes_; }
  std::uint64_t total_steps() const { return total_steps_; }
  std::uint64_t steps(int pid) const {
    if (steps_ == nullptr) return kernel_->steps(pid);
    RTS_ASSERT(pid >= 0 && pid < num_processes_);
    return steps_[pid];
  }

  /// Pids with a pending operation, in pid order.  Every adversary class may
  /// use this: the standard convention for oblivious schedules is that steps
  /// of finished processes are skipped.  Backed by the caller's runnable
  /// set, so constructing a view per step allocates nothing.
  const std::vector<int>& runnable() const { return runnable_->pids(); }
  bool is_runnable(int pid) const { return runnable_->contains(pid); }

  /// The class-filtered view of pid's pending op.  Precondition: runnable.
  PendingOpView pending(int pid) const;

  /// Full kernel access; permitted for the adaptive adversary only.
  const Kernel& adaptive_full_access() const;

 private:
  const Kernel* kernel_ = nullptr;  // null for a kernel-less view
  const RunnableSet* runnable_;
  const std::uint64_t* steps_ = nullptr;  // null: ask the kernel
  std::uint64_t total_steps_;
  int num_processes_;
  AdversaryClass clazz_;
};

/// One scheduling decision.  kAbort flags a pid's abort request (an
/// abortable algorithm must stop trying and return abort-or-lose); it
/// consumes no step budget and is a lenient no-op on finished processes.
struct Action {
  enum class Kind : std::uint8_t { kStep, kCrash, kAbort };
  Kind kind = Kind::kStep;
  int pid = -1;

  static Action step(int pid) { return Action{Kind::kStep, pid}; }
  static Action crash(int pid) { return Action{Kind::kCrash, pid}; }
  static Action abort_req(int pid) { return Action{Kind::kAbort, pid}; }
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  virtual AdversaryClass clazz() const = 0;

  /// Chooses the next action.  Must return a step for a runnable pid or a
  /// crash for a live pid; the kernel asserts this.
  virtual Action next(const KernelView& view) = 0;

  /// Restores the adversary to the state it would have as freshly
  /// constructed with `seed` (and its original non-seed parameters), or
  /// returns false if it cannot.  Pooled trial workspaces reseed their
  /// per-stream adversary between trials instead of reallocating one; an
  /// adversary that returns true here must behave bit-for-bit like a fresh
  /// instance.  The default keeps bespoke adversaries safe: not poolable.
  virtual bool reseed(std::uint64_t /*seed*/) { return false; }
};

}  // namespace rts::sim
