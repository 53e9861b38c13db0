#include "sim/process.hpp"

#include "sim/kernel.hpp"
#include "support/assert.hpp"

namespace rts::sim {

int Context::pid() const { return proc_->pid_; }

support::RandomSource& Context::rng() { return *proc_->rng_; }

void Context::publish_stage(std::uint64_t tag) { proc_->stage_ = tag; }

bool Context::abort_requested() const { return proc_->abort_requested_; }

void Context::unwind_on_abort() { proc_->unwind_on_abort_ = true; }

// Forced inline into read() and write(), its only callers.  With the throw
// below, gcc 12's LTO kept it out of line, and a fiber-kernel step got about
// 5% slower (perfbench sim-scalar, traced, on a 4-core x86-64 VM).
[[gnu::always_inline]] inline std::uint64_t Context::sync_op(
    const PendingOp& op) {
  SimProcess& p = *proc_;
  RTS_ASSERT_MSG(!p.has_pending_, "nested pending operation");
  p.pending_ = op;
  p.has_pending_ = true;
  p.resume_point_ = exec_slot_;
  // Announce: suspend this fiber until the adversary grants the step.  The
  // kernel executes the op and stores the result before resuming us.
  fiber::switch_context(*exec_slot_, p.kernel_->kernel_slot_);
  const std::uint64_t result = p.op_result_;
  // The request is read first: it is almost never set, so an unarmed
  // process pays one predictable branch per op.
  if (p.abort_requested_ && p.unwind_on_abort_) throw AbortRequested{};
  if (yield_after_op_ != nullptr) {
    // Combiner mode: hand control back to the coordinating fiber so it can
    // interleave the other sub-algorithm's next step.
    fiber::switch_context(*exec_slot_, *yield_after_op_);
  }
  return result;
}

std::uint64_t Context::read(RegId reg, OpTags tags) {
  PendingOp op;
  op.kind = OpKind::kRead;
  op.reg = reg;
  op.tags = tags;
  return sync_op(op);
}

void Context::write(RegId reg, std::uint64_t value, OpTags tags) {
  PendingOp op;
  op.kind = OpKind::kWrite;
  op.reg = reg;
  op.value = value;
  op.tags = tags;
  sync_op(op);
}

SimProcess::SimProcess(Kernel& kernel, int pid,
                       std::function<void(Context&)> body,
                       std::unique_ptr<support::RandomSource> rng)
    : SimProcess(kernel, pid, std::move(body), std::move(rng),
                 fiber::acquire_stack(fiber::Fiber::kDefaultStackBytes)) {}

SimProcess::SimProcess(Kernel& kernel, int pid,
                       std::function<void(Context&)> body,
                       std::unique_ptr<support::RandomSource> rng,
                       fiber::MmapStack stack)
    : kernel_(&kernel),
      pid_(pid),
      body_(std::move(body)),
      rng_(std::move(rng)),
      fiber_([this] { body_(root_ctx_); }, std::move(stack)),
      root_ctx_(*this, fiber_) {
  RTS_ASSERT(body_ != nullptr);
  RTS_ASSERT(rng_ != nullptr);
  fiber_.set_return_to(&kernel.kernel_slot_);
}

void SimProcess::rewind() {
  fiber_.rewind();
  root_ctx_.set_yield_after_op(nullptr);
  state_ = State::kUnstarted;
  pending_ = PendingOp{};
  has_pending_ = false;
  op_result_ = 0;
  resume_point_ = nullptr;
  steps_ = 0;
  stage_ = 0;
  abort_requested_ = false;
  unwind_on_abort_ = false;
}

const PendingOp& SimProcess::pending() const {
  RTS_ASSERT_MSG(has_pending_, "no pending operation");
  return pending_;
}

void SimProcess::start() {
  RTS_ASSERT(state_ == State::kUnstarted);
  resume_point_ = &fiber_;
  fiber::switch_context(kernel_->kernel_slot_, fiber_);
  finish_bookkeeping();
}

void SimProcess::resume_with_result(std::uint64_t op_result) {
  RTS_ASSERT(state_ == State::kReady);
  op_result_ = op_result;
  has_pending_ = false;
  fiber::ExecutionContext* resume = resume_point_;
  RTS_ASSERT(resume != nullptr);
  fiber::switch_context(kernel_->kernel_slot_, *resume);
  finish_bookkeeping();
}

void SimProcess::finish_bookkeeping() {
  // Control just returned to the kernel: the process either announced a new
  // op or its main fiber ran to completion -- or threw, and the throw
  // carries on from here, on the kernel's stack, out of the trial.
  if (fiber_.finished()) {
    state_ = State::kFinished;
    fiber_.rethrow_failure();
    RTS_ASSERT_MSG(!has_pending_, "finished with an unexecuted pending op");
  } else {
    RTS_ASSERT_MSG(has_pending_, "process suspended without announcing an op");
    state_ = State::kReady;
  }
}

}  // namespace rts::sim
