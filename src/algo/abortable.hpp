// Abortable leader election (the abortable-TAS capability).
//
// An Almost Tight RMR Lower Bound for Abortable Test-And-Set
// (arXiv:1805.04840) studies TAS objects whose callers may receive an abort
// signal while their operation is in flight: an aborted caller must return
// quickly with "abort" (or lose), it must never win after the signal, and a
// solo caller that is never aborted must still win.  We model the signal as
// an adversary schedule action (sim::Action::Kind::kAbort) that sets a
// per-process flag; reading the flag is local, like polling the caller-side
// abort bit in the paper's model, so it costs no shared-memory step.
//
// AbortableRace is the baseline abortable algorithm: it runs an inner
// (non-abortable) leader election on a child fiber -- the combiner's
// one-op-per-resume interleaving idiom from combined.hpp -- and polls the
// abort flag between every shared-memory operation.  On a requested abort
// the inner election is abandoned mid-operation and the caller returns
// Outcome::kAbort; crucially the flag is checked *before* the inner outcome,
// so a win that races the request is demoted (abort-requested => lose or
// abort, at-most-one-winner is untouched: the demoted winner silences
// itself, never promotes anyone else).  Without a request the inner
// election's outcome passes through unchanged, so a solo unaborted caller
// wins exactly as the inner algorithm guarantees.
//
// Child-stack ownership follows combined.hpp verbatim: elect() frames can be
// abandoned (crash, step-limit starvation, abort), so the child fiber
// borrows its stack from a per-pid slot owned by this object rather than
// owning a mapping that an abandoned frame would leak.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "algo/platform.hpp"
#include "algo/ratrace.hpp"
#include "fiber/fiber.hpp"
#include "fiber/stack.hpp"
#include "support/assert.hpp"

namespace rts::algo {

template <Platform P>
class AbortableRace final : public ILeaderElect<P> {
 public:
  AbortableRace(typename P::Arena arena, int n)
      : inner_(arena, n), child_stacks_(static_cast<std::size_t>(n)) {}

  sim::Outcome elect(typename P::Context& ctx) override {
    using sim::Outcome;
    Outcome inner_out = Outcome::kUnknown;

    struct ChildFrame {
      AbortableRace* self;
      Outcome* out;
      std::optional<typename P::Context> child_ctx;
    } frame{this, &inner_out, std::nullopt};
    ChildStack& slot = child_stacks_[static_cast<std::size_t>(ctx.pid())];
    if (slot.stack.base() == nullptr) {
      slot.stack = fiber::acquire_stack(kChildStackBytes);
    }
    fiber::Fiber child(
        [f = &frame] { *f->out = f->self->inner_.elect(*f->child_ctx); },
        &slot.stack);
    frame.child_ctx.emplace(P::child_context(ctx, child));
    frame.child_ctx->set_yield_after_op(&ctx.exec_slot());
    child.set_return_to(&ctx.exec_slot());

    while (!child.finished()) {
      if (aborting(ctx)) return Outcome::kAbort;  // child abandoned mid-op
      fiber::switch_context(ctx.exec_slot(), child);
      if (child.finished()) {
        child.rethrow_failure();  // a throw in the inner election
      } else if constexpr (requires { ctx.charge_child_op(); }) {
        ctx.charge_child_op();
      }
    }
    // Checked before the inner outcome: a win that races the abort request
    // is demoted, so abort-requested callers only ever lose or abort.
    if (aborting(ctx)) return Outcome::kAbort;
    return inner_out;
  }

  std::size_t declared_registers() const override {
    return inner_.declared_registers();
  }

  void reset_trial_state() override { inner_.reset_trial_state(); }

 private:
  /// Matches the combiner/workspace child-stack size: the inner election is
  /// iterative and shallow.
  static constexpr std::size_t kChildStackBytes = 16 * 1024;

  struct ChildStack {
    fiber::MmapStack stack;
    ~ChildStack() { fiber::release_stack(std::move(stack)); }
  };

  static bool aborting(typename P::Context& ctx) {
    if constexpr (requires { ctx.abort_requested(); }) {
      return ctx.abort_requested();
    } else {
      return false;  // platforms without an abort signal never abort
    }
  }

  RatRacePath<P> inner_;
  // One slot per pid, sized once at construction (see combined.hpp).
  std::vector<ChildStack> child_stacks_;
};

}  // namespace rts::algo
