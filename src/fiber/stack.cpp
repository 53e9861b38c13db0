#include "fiber/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace rts::fiber {

namespace {
std::size_t page_size() {
  static const std::size_t size = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return size;
}

// Atomic: stacks are mapped and released from campaign worker threads and hw
// participant threads alike.
std::atomic<std::size_t> live_stacks{0};
}  // namespace

MmapStack::MmapStack(std::size_t usable_bytes) {
  const std::size_t page = page_size();
  usable_bytes_ = (usable_bytes + page - 1) / page * page;
  mapping_bytes_ = usable_bytes_ + page;  // + guard page
  mapping_ = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping_ == MAP_FAILED) {
    mapping_ = nullptr;
    throw Error("MmapStack: mmap failed");
  }
  live_stacks.fetch_add(1, std::memory_order_relaxed);
  if (::mprotect(mapping_, page, PROT_NONE) != 0) {
    release();
    throw Error("MmapStack: mprotect(guard) failed");
  }
  usable_ = static_cast<char*>(mapping_) + page;
}

MmapStack::~MmapStack() { release(); }

MmapStack::MmapStack(MmapStack&& other) noexcept
    : mapping_(std::exchange(other.mapping_, nullptr)),
      mapping_bytes_(std::exchange(other.mapping_bytes_, 0)),
      usable_(std::exchange(other.usable_, nullptr)),
      usable_bytes_(std::exchange(other.usable_bytes_, 0)) {}

MmapStack& MmapStack::operator=(MmapStack&& other) noexcept {
  if (this != &other) {
    release();
    mapping_ = std::exchange(other.mapping_, nullptr);
    mapping_bytes_ = std::exchange(other.mapping_bytes_, 0);
    usable_ = std::exchange(other.usable_, nullptr);
    usable_bytes_ = std::exchange(other.usable_bytes_, 0);
  }
  return *this;
}

void MmapStack::release() noexcept {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, mapping_bytes_);
    mapping_ = nullptr;
    live_stacks.fetch_sub(1, std::memory_order_relaxed);
  }
}

namespace {

struct StackPool {
  // One bucket suffices in practice: all fibers in a process use the same
  // stack size.  A small vector keyed by size keeps it general.
  struct Bucket {
    std::size_t size = 0;
    std::vector<MmapStack> free;
  };
  std::mutex mu;
  std::vector<Bucket> buckets;  // guarded by mu

  Bucket& bucket_for(std::size_t size) {
    for (Bucket& b : buckets) {
      if (b.size == size) return b;
    }
    buckets.push_back(Bucket{size, {}});
    return buckets.back();
  }
};

StackPool& pool() {
  // Never destroyed, so a stack released during static destruction (or by
  // a thread exiting after main returns) still finds its pool.
  static StackPool* const instance = new StackPool;
  return *instance;
}

}  // namespace

MmapStack acquire_stack(std::size_t usable_bytes) {
  {
    StackPool& stacks = pool();
    std::lock_guard<std::mutex> lock(stacks.mu);
    auto& bucket = stacks.bucket_for(usable_bytes);
    if (!bucket.free.empty()) {
      MmapStack stack = std::move(bucket.free.back());
      bucket.free.pop_back();
      return stack;
    }
  }
  return MmapStack(usable_bytes);  // map outside the lock
}

void release_stack(MmapStack stack) noexcept {
  if (stack.base() == nullptr) return;  // moved-from / never mapped
  constexpr std::size_t kMaxPooledPerSize = 16384;
  StackPool& stacks = pool();
  std::lock_guard<std::mutex> lock(stacks.mu);
  auto& bucket = stacks.bucket_for(stack.size());
  if (bucket.free.size() < kMaxPooledPerSize) {
    bucket.free.push_back(std::move(stack));
  }
}

std::size_t live_stack_count() {
  return live_stacks.load(std::memory_order_relaxed);
}

}  // namespace rts::fiber
