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
    : kernel_(&kernel), clazz_(clazz) {}

PendingOpView KernelView::pending(int pid) const {
  RTS_ASSERT(is_runnable(pid));
  const PendingOp& op = kernel_->pending(pid);
  PendingOpView view;
  view.pid = pid;

  const bool hide_kind = clazz_ == AdversaryClass::kRWOblivious &&
                         op.tags.random_kind;
  const bool hide_reg =
      (clazz_ == AdversaryClass::kLocationOblivious && op.tags.random_location) ||
      clazz_ == AdversaryClass::kOblivious;
  // An oblivious adversary sees no pending information at all.
  if (clazz_ != AdversaryClass::kOblivious && !hide_kind) {
    view.kind = op.kind;
    if (op.kind == OpKind::kWrite) view.value = op.value;
  }
  if (clazz_ != AdversaryClass::kOblivious && !hide_reg) view.reg = op.reg;
  return view;
}

const Kernel& KernelView::adaptive_full_access() const {
  RTS_ASSERT_MSG(clazz_ == AdversaryClass::kAdaptive,
                 "full kernel access is restricted to the adaptive adversary");
  return *kernel_;
}

}  // namespace rts::sim
