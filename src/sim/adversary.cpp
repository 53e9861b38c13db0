#include "sim/adversary.hpp"

#include "support/assert.hpp"

namespace rts::sim {

const char* to_string(AdversaryClass clazz) {
  switch (clazz) {
    case AdversaryClass::kOblivious:
      return "oblivious";
    case AdversaryClass::kLocationOblivious:
      return "location-oblivious";
    case AdversaryClass::kRWOblivious:
      return "rw-oblivious";
    case AdversaryClass::kAdaptive:
      return "adaptive";
  }
  return "?";
}

KernelView::KernelView(const Kernel& kernel, AdversaryClass clazz)
    : kernel_(&kernel),
      runnable_(&kernel.runnable_set()),
      total_steps_(kernel.total_steps()),
      num_processes_(kernel.num_processes()),
      clazz_(clazz) {}

KernelView::KernelView(const RunnableSet& runnable, const std::uint64_t* steps,
                       std::uint64_t total_steps, int num_processes)
    : runnable_(&runnable),
      steps_(steps),
      total_steps_(total_steps),
      num_processes_(num_processes),
      clazz_(AdversaryClass::kOblivious) {
  RTS_ASSERT(steps != nullptr);
}

PendingOpView KernelView::pending(int pid) const {
  RTS_ASSERT(is_runnable(pid));
  PendingOpView view;
  view.pid = pid;
  // An oblivious adversary sees no pending information at all -- which is
  // also why a kernel-less view can serve it.
  if (clazz_ == AdversaryClass::kOblivious) return view;

  const PendingOp& op = kernel_->pending(pid);
  const bool hide_kind = clazz_ == AdversaryClass::kRWOblivious &&
                         op.tags.random_kind;
  const bool hide_reg = clazz_ == AdversaryClass::kLocationOblivious &&
                        op.tags.random_location;
  if (!hide_kind) {
    view.kind = op.kind;
    if (op.kind == OpKind::kWrite) view.value = op.value;
  }
  if (!hide_reg) view.reg = op.reg;
  return view;
}

const Kernel& KernelView::adaptive_full_access() const {
  RTS_ASSERT_MSG(clazz_ == AdversaryClass::kAdaptive,
                 "full kernel access is restricted to the adaptive adversary");
  return *kernel_;
}

}  // namespace rts::sim
