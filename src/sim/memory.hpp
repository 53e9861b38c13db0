// The simulated shared memory: an array of atomic multi-reader multi-writer
// registers with full accounting (reads, writes, last writer).
//
// Following the paper's Section 5 convention, every register implicitly
// stores the identifier of its last writer next to the value ("whenever a
// process writes a value to a register, that value is a pair (x, ID)").  The
// simulator keeps the ID as metadata so algorithms see plain values while
// the lower-bound driver can ask who is *visible* on a register.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "rmr/model.hpp"
#include "sim/types.hpp"
#include "support/assert.hpp"

namespace rts::sim {

struct RegSlot {
  std::uint64_t value = 0;
  int last_writer = -1;  // -1 = bottom: no process visible
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Interned: points into the owning SimMemory's name pool (mirrors the hw
  /// Arena::reg string_view contract -- no per-register std::string copy).
  std::string_view name;
};

class SimMemory {
 public:
  /// Allocates a fresh register initialised to 0 and returns its id.  Takes
  /// a view to match the platform Arena contract; the name is interned in a
  /// memory-owned pool, so repeated layouts (pooled workspaces rebuilding a
  /// structure, duplicate component names) store each distinct name once.
  RegId alloc(std::string_view name);

  /// Rewinds every register to its freshly-allocated state -- value 0, no
  /// visible writer, zero traffic -- while keeping the slots, their interned
  /// names, and the allocation count.  A pooled workspace calls this between
  /// trials so a reused layout is indistinguishable from a fresh build.
  /// O(touched): only the slots touched since the last reset are rewritten.
  void reset_values();

  // read/write are the innermost simulated-step operations (one of the two
  // runs per grant); defined inline below so the kernel's step loop pays no
  // cross-TU call.
  std::uint64_t read(RegId reg, int pid);
  void write(RegId reg, std::uint64_t value, int pid);

  const RegSlot& slot(RegId reg) const;

  /// Number of registers allocated so far.
  std::size_t allocated() const { return slots_.size(); }
  /// Number of registers with at least one read or write.  Maintained
  /// incrementally (first touch of a slot), so per-trial space accounting
  /// costs O(1) instead of a scan over every allocated slot.
  std::size_t touched() const { return touched_slots_.size(); }
  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t total_writes() const { return total_writes_; }

  struct PrefixUsage {
    std::string prefix;     // register-name prefix up to the first '.'
    std::size_t registers = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };
  /// Space/traffic breakdown grouped by register-name prefix (the component
  /// that allocated it), sorted by register count descending.
  std::vector<PrefixUsage> usage_by_prefix() const;

  /// Attaches (or detaches, with nullptr) an RMR tally charged on every
  /// read/write.  Null by default, so runs without RMR accounting keep the
  /// pre-subsystem hot path: one predictable branch per access.
  void set_rmr_counter(rmr::RmrCounter* counter) { rmr_ = counter; }

 private:
  std::string_view intern(std::string_view name);

  std::vector<RegSlot> slots_;
  std::deque<std::string> name_pool_;  // stable storage behind the views
  std::unordered_set<std::string_view> interned_;
  std::vector<RegId> touched_slots_;  // touched since the last reset
  std::uint64_t total_reads_ = 0;
  std::uint64_t total_writes_ = 0;
  rmr::RmrCounter* rmr_ = nullptr;  // not owned; null = no RMR accounting
};

inline std::uint64_t SimMemory::read(RegId reg, int pid) {
  RTS_ASSERT(reg < slots_.size());
  RegSlot& slot = slots_[reg];
  if (slot.reads == 0 && slot.writes == 0) touched_slots_.push_back(reg);
  ++slot.reads;
  ++total_reads_;
  if (rmr_ != nullptr) rmr_->on_read(pid, reg);
  return slot.value;
}

inline void SimMemory::write(RegId reg, std::uint64_t value, int pid) {
  RTS_ASSERT(reg < slots_.size());
  RegSlot& slot = slots_[reg];
  if (slot.reads == 0 && slot.writes == 0) touched_slots_.push_back(reg);
  slot.value = value;
  slot.last_writer = pid;
  ++slot.writes;
  ++total_writes_;
  if (rmr_ != nullptr) rmr_->on_write(pid, reg);
}

}  // namespace rts::sim
