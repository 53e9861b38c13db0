// A simulated process: a fiber executing algorithm code, which suspends to
// the kernel at every shared-memory operation.
//
// Lifecycle:
//   kUnstarted --start()--> kReady (pending op announced)
//   kReady --grant()--> executes op, runs local code, announces next op
//           (kReady again) or finishes (kFinished)
//   any live state --crash()--> kCrashed (fiber abandoned)
//
// The paper's step-complexity measure counts exactly the shared-memory
// operations, which is exactly the number of grants a process receives.
//
// Nested fibers: the Section-4 combiner runs sub-algorithms on child fibers
// inside one process.  Suspension always funnels through this SimProcess:
// `resume_point_` names whichever fiber announced the current pending op, so
// the kernel resumes the right continuation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "fiber/fiber.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace rts::sim {

class Kernel;
class SimProcess;

/// Handle through which algorithm code (running on a process fiber) talks to
/// the simulation: shared-memory ops, randomness, stage publication.  One
/// Context exists per fiber; all Contexts of a process share the process.
class Context {
 public:
  Context(SimProcess& proc, fiber::ExecutionContext& exec_slot)
      : proc_(&proc), exec_slot_(&exec_slot) {}

  int pid() const;
  support::RandomSource& rng();

  std::uint64_t flip() { return rng().flip(); }
  std::uint64_t uniform_below(std::uint64_t n) { return rng().draw(n); }
  std::uint64_t geometric_trunc(std::uint64_t ell) {
    return rng().geometric_trunc(ell);
  }

  /// Performs a shared-memory read (suspends until the adversary grants it).
  std::uint64_t read(RegId reg, OpTags tags = {});
  /// Performs a shared-memory write (suspends until the adversary grants it).
  void write(RegId reg, std::uint64_t value, OpTags tags = {});

  /// Publishes an algorithm-defined stage tag, readable by white-box
  /// (adaptive) adversaries and attack drivers via Kernel::stage().  This is
  /// local information -- an adaptive adversary could reconstruct it from
  /// coins and the schedule anyway -- made cheap to query.
  void publish_stage(std::uint64_t tag);

  /// True once the adversary has requested this process abort (abortable
  /// algorithms poll this between operations and bail with Outcome::kAbort).
  /// Local information, like a caller-side abort flag in the 1805.04840
  /// model, so reading it is not a shared-memory operation.
  bool abort_requested() const;

  /// After each completed operation, yield to `parent` instead of continuing.
  /// Used by the combiner to interleave two sub-algorithms step by step.
  void set_yield_after_op(fiber::ExecutionContext* parent) {
    yield_after_op_ = parent;
  }

  /// The continuation slot of the fiber this context runs on (the combiner
  /// uses its own slot as the yield target for child contexts).
  fiber::ExecutionContext& exec_slot() { return *exec_slot_; }

  SimProcess& process() { return *proc_; }

 private:
  std::uint64_t sync_op(const PendingOp& op);

  SimProcess* proc_;
  fiber::ExecutionContext* exec_slot_;
  fiber::ExecutionContext* yield_after_op_ = nullptr;
};

class SimProcess {
 public:
  enum class State : std::uint8_t { kUnstarted, kReady, kFinished, kCrashed };

  /// `body` runs on the process's main fiber with the process's root Context.
  SimProcess(Kernel& kernel, int pid, std::function<void(Context&)> body,
             std::unique_ptr<support::RandomSource> rng);
  /// Same, on an adopted caller-owned stack (workspace stack pooling).
  SimProcess(Kernel& kernel, int pid, std::function<void(Context&)> body,
             std::unique_ptr<support::RandomSource> rng,
             fiber::MmapStack stack);

  int pid() const { return pid_; }
  State state() const { return state_; }
  bool runnable() const { return state_ == State::kReady; }
  const PendingOp& pending() const;
  std::uint64_t steps() const { return steps_; }
  std::uint64_t stage() const { return stage_; }
  bool abort_requested() const { return abort_requested_; }
  support::RandomSource& rng() { return *rng_; }

  /// Rewinds to the unstarted state for another trial over the same body:
  /// the fiber is re-seeded to a fresh first activation, counters and the
  /// pending op are cleared.  The caller reseeds the process's RandomSource
  /// separately (see support::PrngSource::reseed).  Valid from any state --
  /// a crashed or starved process leaves nothing behind on rewind.
  void rewind();

 private:
  friend class Context;
  friend class Kernel;

  void start();                         // run prologue to first announcement
  void resume_with_result(std::uint64_t op_result);  // after kernel ran the op
  void crash() { state_ = State::kCrashed; }
  void finish_bookkeeping();            // called from kernel after each return

  Kernel* kernel_;
  int pid_;
  // Beside pid_, in what would be padding: with the fiber's failure slot,
  // this keeps SimProcess at 256 bytes, in the malloc size class it had
  // before (at 272 bytes a fresh 1024-process kernel ran 25-35% slower).
  bool has_pending_ = false;
  bool abort_requested_ = false;
  std::function<void(Context&)> body_;
  std::unique_ptr<support::RandomSource> rng_;
  fiber::Fiber fiber_;
  Context root_ctx_;

  State state_ = State::kUnstarted;
  PendingOp pending_{};
  std::uint64_t op_result_ = 0;
  fiber::ExecutionContext* resume_point_ = nullptr;
  std::uint64_t steps_ = 0;
  std::uint64_t stage_ = 0;
};

}  // namespace rts::sim
