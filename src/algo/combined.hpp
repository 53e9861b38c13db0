// Adversary-independent combination (Section 4, Theorem 4.1).
//
// Runs the space-efficient RatRace and a weak-adversary algorithm A in
// parallel, round-robin per shared-memory step (odd steps RatRace, even
// steps A), so the combination costs O(min(RatRace, A)) steps against each
// adversary class: O(log k) vs the adaptive adversary and O(C_A(k)) vs the
// weak adversary A was designed for.
//
// Combination rules (verbatim from the paper):
//   1. Winning either execution stops the other; the winner plays LE_top
//      (RatRace winner = side 0, A winner = side 1); winning LE_top wins.
//   2. Losing RatRace stops A and loses.
//   3. Losing A loses only if the process has not yet won any (deterministic
//      or randomized) splitter in RatRace; otherwise it abandons A and
//      continues RatRace alone.  (Without rule 3 two processes can eliminate
//      each other across the two structures and nobody wins -- the
//      regression test combined.Rule3 demonstrates this.)
//
// Rule 3 on RatRacePath needs more than the paper's wording.  A splitter on
// an elimination path eliminates: an entrant that finds its door closed goes
// Left and loses RatRace.  So a path entrant that closed a door, or stopped
// and is still climbing, may already have sent another process out of
// RatRace by rule 2 while that process was ahead in A; if it then lost A and
// left, nobody would win (seen at k=2 under the random scheduler, about 0.4%
// of trials).  A process therefore counts as having won a splitter -- as
// committed to RatRace -- from the moment it enters an elimination path
// (RatRacePath::won_splitter).
//
// Step interleaving runs each sub-algorithm on its own child fiber: after a
// child completes one shared-memory operation it yields back to the
// coordinator, which resumes the other child.  From the kernel's (or
// hardware's) perspective the process simply issues the two executions'
// operations alternately.  Child fibers are abandoned (not unwound) when a
// rule resolves the election; sub-algorithms therefore must not hold owning
// heap state across operations, which holds for every algorithm in this
// library that the combiner wraps.  A throw inside a child cannot unwind off
// its fiber; the fiber keeps it, and the coordinator rethrows it on its own
// stack when it finds the child finished (fiber::Fiber::rethrow_failure), so
// it reaches whatever handles the process's election.
//
// Child-stack ownership: the coordinator's own fiber can itself be abandoned
// mid-elect (a crashed or step-limit-starved simulated process), dropping the
// elect() frame -- and everything it owns -- without unwinding.  The child
// fibers therefore *borrow* their stacks from per-pid slots owned by this
// CombinedLe object: an abandoned frame abandons only the Fiber bookkeeping,
// while the mappings stay in the slot and are re-seeded by the next election
// of that pid.  (Owning the stacks from the frame leaked two mappings per
// abandoned election; the crash-campaign stack-balance test pins this down.)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "algo/le2.hpp"
#include "algo/platform.hpp"
#include "algo/ratrace.hpp"
#include "algo/stages.hpp"
#include "fiber/fiber.hpp"
#include "fiber/stack.hpp"
#include "support/assert.hpp"

namespace rts::algo {

template <Platform P>
class CombinedLe final : public ILeaderElect<P> {
 public:
  CombinedLe(typename P::Arena arena, int n,
             std::unique_ptr<ILeaderElect<P>> algo_a)
      : ratrace_(arena, n),
        algo_a_(std::move(algo_a)),
        le_top_(arena, 0xffffu),
        child_stacks_(static_cast<std::size_t>(n)) {
    RTS_REQUIRE(algo_a_ != nullptr, "combined: weak-adversary algorithm null");
  }

  sim::Outcome elect(typename P::Context& ctx) override {
    using sim::Outcome;
    Outcome rr_out = Outcome::kUnknown;
    Outcome a_out = Outcome::kUnknown;

    // Child contexts are created after the fibers (they reference them), but
    // the fiber bodies run only on first resume, by which time the optionals
    // are engaged.  The bodies capture one frame pointer so the fiber's
    // std::function stays within the small-object buffer -- two heap
    // allocations per participant per election otherwise.
    struct ChildFrame {
      CombinedLe* self;
      Outcome* rr_out;
      Outcome* a_out;
      std::optional<typename P::Context> rr_ctx;
      std::optional<typename P::Context> a_ctx;
    } frame{this, &rr_out, &a_out, std::nullopt, std::nullopt};
    // Stacks come from this process's slot (lazily mapped on its first
    // combined election, reused -- possibly after an abandonment -- ever
    // after); the Fiber objects only borrow them, see the header comment.
    ChildStacks& stacks = child_stacks_[static_cast<std::size_t>(ctx.pid())];
    if (stacks.rr.base() == nullptr) {
      stacks.rr = fiber::acquire_stack(kChildStackBytes);
      stacks.a = fiber::acquire_stack(kChildStackBytes);
    }
    fiber::Fiber rr_fib(
        [f = &frame] { *f->rr_out = f->self->ratrace_.elect(*f->rr_ctx); },
        &stacks.rr);
    fiber::Fiber a_fib(
        [f = &frame] { *f->a_out = f->self->algo_a_->elect(*f->a_ctx); },
        &stacks.a);
    std::optional<typename P::Context>& rr_ctx = frame.rr_ctx;
    std::optional<typename P::Context>& a_ctx = frame.a_ctx;
    rr_ctx.emplace(P::child_context(ctx, rr_fib));
    a_ctx.emplace(P::child_context(ctx, a_fib));
    rr_ctx->set_yield_after_op(&ctx.exec_slot());
    a_ctx->set_yield_after_op(&ctx.exec_slot());
    rr_fib.set_return_to(&ctx.exec_slot());
    a_fib.set_return_to(&ctx.exec_slot());

    bool rr_turn = true;  // odd steps RatRace, even steps A
    bool a_abandoned = false;

    for (;;) {
      // Rule 1: a win in either execution goes to LE_top.
      if (rr_out == Outcome::kWin) return play_top(ctx, 0);
      if (a_out == Outcome::kWin) return play_top(ctx, 1);
      // Rule 2: losing RatRace loses outright.
      if (rr_out == Outcome::kLose) return Outcome::kLose;
      // Rule 3: losing A loses only while uncommitted to RatRace (no
      // splitter won and no elimination path entered; see above).
      if (a_out == Outcome::kLose && !a_abandoned) {
        if (!ratrace_.won_splitter(ctx.pid())) return Outcome::kLose;
        a_abandoned = true;
      }

      const bool a_available =
          !a_abandoned && a_out == Outcome::kUnknown && !a_fib.finished();
      const bool step_rr = rr_turn || !a_available;
      rr_turn = !rr_turn;
      fiber::Fiber& child = step_rr ? rr_fib : a_fib;
      RTS_ASSERT_MSG(!child.finished(), "combined: resuming finished child");
      fiber::switch_context(ctx.exec_slot(), child);
      // The child either completed exactly one shared-memory op and yielded,
      // or ran to its end: it returned (op-free from its last yield point)
      // with its outcome set, or it threw, and the throw carries on here, on
      // the coordinator's stack.  Platforms that police each op (hw) charge
      // a yielded op to the coordinator's context, so child ops answer to
      // the same budget, deadline and stall as the coordinator's own.
      if (child.finished()) {
        child.rethrow_failure();
      } else if constexpr (requires { ctx.charge_child_op(); }) {
        ctx.charge_child_op();
      }
    }
  }

  std::size_t declared_registers() const override {
    return ratrace_.declared_registers() + algo_a_->declared_registers() +
           Le2<P>::kRegisters;
  }

  void reset_trial_state() override {
    ratrace_.reset_trial_state();
    algo_a_->reset_trial_state();
  }

 private:
  /// Children run short, iterative sub-elections; the default 128 KB would
  /// be wasteful at two mappings per participant held for the object's
  /// lifetime.  Matches the pooled workspace's process-stack size.
  static constexpr std::size_t kChildStackBytes = 16 * 1024;

  struct ChildStacks {
    fiber::MmapStack rr;
    fiber::MmapStack a;
    ~ChildStacks() {
      // Back to the process-wide pool (a no-op for never-mapped slots), so
      // the fresh-kernel path keeps recycling child stacks across trials.
      fiber::release_stack(std::move(rr));
      fiber::release_stack(std::move(a));
    }
  };

  sim::Outcome play_top(typename P::Context& ctx, int side) {
    ctx.publish_stage(stage::make(stage::kTop, 1));
    return le_top_.elect(ctx, side);
  }

  RatRacePath<P> ratrace_;
  std::unique_ptr<ILeaderElect<P>> algo_a_;
  Le2<P> le_top_;
  // One slot per pid: each participant touches only its own entry, so the
  // vector is safe under hw's racing threads (sized once at construction,
  // never resized).
  std::vector<ChildStacks> child_stacks_;
};

}  // namespace rts::algo
