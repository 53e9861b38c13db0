#include "fiber/fiber.hpp"

#include <cstdint>

#if RTS_FIBER_ASAN
#include <pthread.h>

#include <sanitizer/asan_interface.h>
#endif

#include "support/assert.hpp"

#if RTS_FIBER_FAST_CONTEXT
extern "C" {
/// Implemented in fcontext_x86_64.S; rts_fctx_swap is declared in fiber.hpp
/// (switch_context is inline there -- two switches run per simulated step).
void rts_fctx_boot();
/// Called by rts_fctx_boot on a fiber's first activation.
[[noreturn]] void rts_fiber_entry(void* self);
}
#endif

namespace rts::fiber {

#if RTS_FIBER_ASAN
void ExecutionContext::asan_capture_thread_stack() {
  pthread_attr_t attr;
  if (::pthread_getattr_np(::pthread_self(), &attr) != 0) return;
  void* bottom = nullptr;
  std::size_t size = 0;
  if (::pthread_attr_getstack(&attr, &bottom, &size) == 0) {
    asan_stack_bottom_ = bottom;
    asan_stack_size_ = size;
  }
  ::pthread_attr_destroy(&attr);
}
#endif

#if !RTS_FIBER_FAST_CONTEXT
void switch_context(ExecutionContext& save_into, ExecutionContext& resume) {
  RTS_ASSERT(&save_into != &resume);
#if RTS_FIBER_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(save_into.asan_exiting_ ? nullptr : &fake,
                                 resume.asan_stack_bottom_,
                                 resume.asan_stack_size_);
#endif
#if RTS_FIBER_TSAN
  __tsan_switch_to_fiber(resume.tsan_fiber_, 0);
#endif
  const int rc = ::swapcontext(&save_into.uc_, &resume.uc_);
  RTS_ASSERT_MSG(rc == 0, "swapcontext failed");
#if RTS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
}
#endif

Fiber::~Fiber() {
#if RTS_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (borrowed_ == nullptr) release_stack(std::move(stack_));
}

void Fiber::asan_reset_stack() {
#if RTS_FIBER_ASAN
  // Reused stacks (rewind, pool adoption, abandonment) carry stale shadow
  // poison from the previous activation's frames; clear it so the next
  // activation starts from clean shadow.
  __asan_unpoison_memory_region(stack().base(), stack().size());
  asan_stack_bottom_ = stack().base();
  asan_stack_size_ = stack().size();
  asan_exiting_ = false;
#endif
}

void Fiber::tsan_reset_fiber() {
#if RTS_FIBER_TSAN
  // A fresh TSan fiber per activation: an abandoned activation never pops
  // its frames off TSan's fixed-size shadow stack, so reusing the old one
  // grows it with every rewind until TSan hangs (a fiber abandoned 22 frames
  // deep did after ~3000 rewinds).  tsan_fiber_ holds the thread's own
  // handle (from the base constructor) until the first reset.
  if (tsan_owned_) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = __tsan_create_fiber(0);
  tsan_owned_ = true;
#endif
}

Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes)
    : Fiber(std::move(fn), acquire_stack(stack_bytes)) {}

Fiber::Fiber(std::function<void()> fn, MmapStack stack)
    : stack_(std::move(stack)), fn_(std::move(fn)) {
  RTS_ASSERT(fn_ != nullptr);
  RTS_ASSERT(stack_.base() != nullptr);
  seed_stack();
}

Fiber::Fiber(std::function<void()> fn, MmapStack* borrowed)
    : borrowed_(borrowed), fn_(std::move(fn)) {
  RTS_ASSERT(fn_ != nullptr);
  RTS_ASSERT(borrowed_ != nullptr && borrowed_->base() != nullptr);
  seed_stack();
}

void Fiber::rewind() {
  finished_ = false;
  failure_ = nullptr;
  seed_stack();
}

#if RTS_FIBER_FAST_CONTEXT

void rts_fiber_entry_impl(Fiber* self) {
#if RTS_FIBER_ASAN
  // First activation: complete the switch the resumer started.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  self->run();
}

void Fiber::seed_stack() {
  asan_reset_stack();
  tsan_reset_fiber();
  // Seed the stack so the first switch "returns" into rts_fctx_boot with
  // this Fiber* in r15.  Layout (addresses descending from the 16-aligned
  // stack top): [pad][pad][&boot][rbp][rbx][r12][r13][r14][r15=this].
  auto* top = reinterpret_cast<std::uint64_t*>(
      static_cast<char*>(stack().base()) + stack().size());
  RTS_ASSERT((reinterpret_cast<std::uintptr_t>(top) & 15u) == 0);
  std::uint64_t* sp = top;
  *--sp = 0;                                              // padding
  *--sp = 0;                                              // ret lands here
  *--sp = reinterpret_cast<std::uint64_t>(&rts_fctx_boot);  // 'ret' target
  *--sp = 0;                                              // rbp
  *--sp = 0;                                              // rbx
  *--sp = 0;                                              // r12
  *--sp = 0;                                              // r13
  *--sp = 0;                                              // r14
  *--sp = reinterpret_cast<std::uint64_t>(this);          // r15 -> entry arg
  sp_ = sp;
}

#else  // ucontext fallback

void Fiber::seed_stack() {
  asan_reset_stack();
  tsan_reset_fiber();
  const int rc = ::getcontext(&uc_);
  RTS_ASSERT_MSG(rc == 0, "getcontext failed");
  uc_.uc_stack.ss_sp = stack().base();
  uc_.uc_stack.ss_size = stack().size();
  uc_.uc_link = nullptr;  // returns are routed through the trampoline instead
  // makecontext only passes ints; split the this-pointer into two 32-bit
  // halves (the portable idiom).
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&uc_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
#if RTS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  const auto self_bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(self_bits)->run();
}

#endif

void Fiber::run() {
  // The handler completes before the final switch below, so no catch is
  // ever left open across stacks.
  try {
    fn_();
  } catch (...) {
    failure_ = std::current_exception();
  }
  finished_ = true;
  RTS_ASSERT_MSG(return_to_ != nullptr,
                 "fiber function returned with no return context set");
#if RTS_FIBER_ASAN
  asan_exiting_ = true;  // tell ASan this activation will not be resumed
#endif
  // Jump out for the last time; saving into our own slot is harmless since
  // nothing may resume a finished fiber.
  switch_context(*this, *return_to_);
  RTS_ASSERT_MSG(false, "resumed a finished fiber");
}

}  // namespace rts::fiber

#if RTS_FIBER_FAST_CONTEXT
extern "C" [[noreturn]] void rts_fiber_entry(void* self) {
  rts::fiber::rts_fiber_entry_impl(static_cast<rts::fiber::Fiber*>(self));
  __builtin_unreachable();
}
#endif
