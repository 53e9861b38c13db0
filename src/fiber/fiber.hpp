// Cooperative fibers.
//
// The simulator runs every simulated process as a fiber inside one OS
// thread; a context switch happens at every shared-memory operation, giving
// the adversary per-step scheduling control.  The Section-4 combiner
// additionally nests fibers: one child fiber per sub-algorithm inside a
// process.
//
// The model is plain symmetric switching: `switch_context(save, resume)`
// saves the caller's continuation into `save` and jumps to `resume`.  There
// is no scheduler here -- the simulator kernel and the combiner decide every
// switch explicitly.
//
// Two backends:
//   * x86-64: a 20-instruction assembly switch (fcontext_x86_64.S) saving
//     only callee-saved state -- no kernel involvement, ~nanoseconds.
//   * other architectures: POSIX ucontext (swapcontext does a sigprocmask
//     syscall per switch; correct but much slower).
#pragma once

#if defined(__x86_64__)
#define RTS_FIBER_FAST_CONTEXT 1
#else
#define RTS_FIBER_FAST_CONTEXT 0
#include <ucontext.h>
#endif

// AddressSanitizer needs to be told about every stack switch (it tracks the
// current stack extent for redzone checks and fake-stack bookkeeping); the
// annotations are no-ops in regular builds.
#if defined(__SANITIZE_ADDRESS__)
#define RTS_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RTS_FIBER_ASAN 1
#endif
#endif
#ifndef RTS_FIBER_ASAN
#define RTS_FIBER_ASAN 0
#endif
#if RTS_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer keeps a shadow call stack and a happens-before clock per
// fiber; it must be told of every stack switch to attribute each access to
// the fiber that makes it.  The annotations are no-ops in regular builds.
#if defined(__SANITIZE_THREAD__)
#define RTS_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RTS_FIBER_TSAN 1
#endif
#endif
#ifndef RTS_FIBER_TSAN
#define RTS_FIBER_TSAN 0
#endif
#if RTS_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#include <cstddef>
#include <exception>
#include <functional>

#include "fiber/stack.hpp"
#include "support/assert.hpp"

namespace rts::fiber {

/// A resumable continuation slot: either the implicit context of an OS thread
/// (default-constructed) or a Fiber's context.
class ExecutionContext {
 public:
  ExecutionContext() {
#if RTS_FIBER_ASAN
    asan_capture_thread_stack();
#endif
#if RTS_FIBER_TSAN
    tsan_fiber_ = __tsan_get_current_fiber();
#endif
  }
  virtual ~ExecutionContext() = default;

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

 protected:
  friend void switch_context(ExecutionContext& save_into,
                             ExecutionContext& resume);
#if RTS_FIBER_FAST_CONTEXT
  void* sp_ = nullptr;
#else
  ucontext_t uc_{};
#endif
#if RTS_FIBER_TSAN
  /// TSan's handle for this context: a thread root keeps its thread's own,
  /// a Fiber owns one from __tsan_create_fiber.
  void* tsan_fiber_ = nullptr;
#endif
#if RTS_FIBER_ASAN
 public:
  /// Stack extent ASan should adopt when this context is resumed.  Fibers
  /// set it from their MmapStack; thread-root contexts capture the current
  /// thread's stack at construction.
  const void* asan_stack_bottom_ = nullptr;
  std::size_t asan_stack_size_ = 0;
  /// Set just before the final switch out of a finishing fiber so ASan can
  /// free that activation's fake-stack state instead of expecting a return.
  bool asan_exiting_ = false;

 protected:
  /// Captures the calling thread's stack extent (thread-root contexts).
  void asan_capture_thread_stack();
#endif
};

/// Saves the current continuation into `save_into` and resumes `resume`.
/// Returns when something later switches back into `save_into`.
/// Defined inline below: two of these run per simulated step.
void switch_context(ExecutionContext& save_into, ExecutionContext& resume);

/// A fiber: a function plus its own guarded stack.  The function starts
/// running the first time something switches into the fiber.  When the
/// function returns, control jumps to the context designated by
/// `set_return_to` (which must be set before the final return happens).
/// A throw cannot unwind across the fiber boundary, so the fiber catches
/// whatever its function throws and finishes as usual; whoever resumes it
/// and finds it finished calls rethrow_failure(), which carries the
/// exception on to the resumer's stack.
class Fiber final : public ExecutionContext {
 public:
  static constexpr std::size_t kDefaultStackBytes = 128 * 1024;

  explicit Fiber(std::function<void()> fn,
                 std::size_t stack_bytes = kDefaultStackBytes);
  /// Adopts a caller-owned stack instead of acquiring one from the
  /// process-wide pool: workspace pools hand mappings straight to the next
  /// fiber with no acquire/release round-trip.  The stack is released back to
  /// the pool on destruction like any other fiber stack.
  Fiber(std::function<void()> fn, MmapStack stack);
  /// Runs on a *borrowed* stack: ownership stays with the caller, so the
  /// mapping survives even if this Fiber object is abandoned without
  /// destruction (dropped on another abandoned fiber's stack -- the combiner
  /// child-fiber case).  `*stack` must outlive every activation of the
  /// fiber and must not be shared with a concurrently running fiber.
  Fiber(std::function<void()> fn, MmapStack* borrowed);
  ~Fiber() override;

  /// Where control goes when the fiber's function returns.
  void set_return_to(ExecutionContext* ctx) { return_to_ = ctx; }

  bool finished() const { return finished_; }

  /// Rethrows what the fiber's function threw, on the caller's stack; a
  /// no-op while the fiber runs or after its function returned.  Every
  /// resume that finds the fiber finished calls this, so a failed fiber is
  /// never taken for a normal finish.
  void rethrow_failure() const {
    if (failure_) std::rethrow_exception(failure_);
  }

  /// Re-seeds the stack so the next switch into the fiber is a fresh first
  /// activation of the same function, and forgets any failure.  Valid
  /// whether the fiber finished or was abandoned mid-run; like destruction
  /// of an abandoned fiber, objects live on the old stack contents are
  /// dropped without unwinding.  Must not be called on the currently
  /// running fiber.
  void rewind();

 private:
#if RTS_FIBER_FAST_CONTEXT
  friend void rts_fiber_entry_impl(Fiber* self);
#else
  static void trampoline(unsigned hi, unsigned lo);
#endif
  void seed_stack();
  void asan_reset_stack();  // no-op outside ASan builds
  void tsan_reset_fiber();  // no-op outside TSan builds
  void run();
  MmapStack& stack() { return borrowed_ != nullptr ? *borrowed_ : stack_; }

  MmapStack stack_;                 // owned mode (borrowed_ == nullptr)
  MmapStack* borrowed_ = nullptr;   // borrowed mode: caller keeps ownership
  std::function<void()> fn_;
  ExecutionContext* return_to_ = nullptr;
  bool finished_ = false;
  std::exception_ptr failure_;  ///< what fn_ threw, if it threw
#if RTS_FIBER_TSAN
  bool tsan_owned_ = false;  ///< tsan_fiber_ came from __tsan_create_fiber
#endif
};

#if RTS_FIBER_FAST_CONTEXT
extern "C" void rts_fctx_swap(void** save_sp, void* resume_sp);

inline void switch_context(ExecutionContext& save_into,
                           ExecutionContext& resume) {
  RTS_ASSERT(&save_into != &resume);
#if RTS_FIBER_ASAN
  // `fake` lives in this frame on the old stack: the matching finish call
  // below runs when something later switches back into `save_into`, resuming
  // exactly this frame.
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(save_into.asan_exiting_ ? nullptr : &fake,
                                 resume.asan_stack_bottom_,
                                 resume.asan_stack_size_);
#endif
#if RTS_FIBER_TSAN
  __tsan_switch_to_fiber(resume.tsan_fiber_, 0);
#endif
  rts_fctx_swap(&save_into.sp_, resume.sp_);
#if RTS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
}
#endif

}  // namespace rts::fiber
