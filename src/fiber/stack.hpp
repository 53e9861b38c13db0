// RAII mmap-backed fiber stacks with an inaccessible guard page at the low
// end, so stack overflow in a fiber faults immediately instead of silently
// corrupting a neighbouring stack.
#pragma once

#include <cstddef>

namespace rts::fiber {

class MmapStack {
 public:
  /// An empty stack (no mapping); the target of moves and the state a
  /// borrowed-stack slot starts in before its lazy first acquisition.
  MmapStack() = default;
  /// Maps `usable_bytes` (rounded up to whole pages) of read/write memory
  /// plus one PROT_NONE guard page below it.  Throws rts::Error on failure.
  explicit MmapStack(std::size_t usable_bytes);
  ~MmapStack();

  MmapStack(const MmapStack&) = delete;
  MmapStack& operator=(const MmapStack&) = delete;
  MmapStack(MmapStack&& other) noexcept;
  MmapStack& operator=(MmapStack&& other) noexcept;

  /// Base of the usable region (above the guard page).
  void* base() const { return usable_; }
  std::size_t size() const { return usable_bytes_; }

 private:
  void release() noexcept;

  void* mapping_ = nullptr;       // includes the guard page
  std::size_t mapping_bytes_ = 0;
  void* usable_ = nullptr;
  std::size_t usable_bytes_ = 0;
};

/// Process-wide stack recycling.  The model checker constructs and destroys
/// fibers millions of times; reusing mappings avoids mmap/mprotect on every
/// execution.  One pool behind one mutex serves every thread, so a stack
/// mapped on one thread and released on another (a combiner's child stacks
/// on hw: acquired by a participant, released by the thread that destroys
/// the election) is reused, not hoarded.  Stacks are only handed out for
/// the exact usable size requested, and at most 16384 per size are kept.
MmapStack acquire_stack(std::size_t usable_bytes);
void release_stack(MmapStack stack) noexcept;

/// Number of stack mappings currently alive in the whole process, whether in
/// use by a fiber or parked in the pool.  Observability for the
/// abandoned-fiber leak regression tests: a schedule that abandons fibers
/// owning their stacks would grow this count without bound.
std::size_t live_stack_count();

}  // namespace rts::fiber
