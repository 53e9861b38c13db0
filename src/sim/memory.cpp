#include "sim/memory.hpp"

#include <algorithm>
#include <map>

#include "support/assert.hpp"

namespace rts::sim {

std::string_view SimMemory::intern(std::string_view name) {
  const auto it = interned_.find(name);
  if (it != interned_.end()) return *it;
  name_pool_.emplace_back(name);  // deque: stable addresses behind the views
  const std::string_view pooled = name_pool_.back();
  interned_.insert(pooled);
  return pooled;
}

RegId SimMemory::alloc(std::string_view name) {
  RegSlot slot;
  slot.name = intern(name);
  slots_.push_back(slot);
  return static_cast<RegId>(slots_.size() - 1);
}

void SimMemory::reset_values() {
  // Only a read or write dirties a slot, and each records its first touch.
  for (const RegId reg : touched_slots_) {
    RegSlot& slot = slots_[reg];
    slot.value = 0;
    slot.last_writer = -1;
    slot.reads = 0;
    slot.writes = 0;
  }
  touched_slots_.clear();
  total_reads_ = 0;
  total_writes_ = 0;
}

const RegSlot& SimMemory::slot(RegId reg) const {
  RTS_ASSERT(reg < slots_.size());
  return slots_[reg];
}

std::vector<SimMemory::PrefixUsage> SimMemory::usage_by_prefix() const {
  std::map<std::string, PrefixUsage> by_prefix;
  for (const auto& slot : slots_) {
    const std::string prefix(slot.name.substr(0, slot.name.find('.')));
    PrefixUsage& usage = by_prefix[prefix];
    usage.prefix = prefix;
    ++usage.registers;
    usage.reads += slot.reads;
    usage.writes += slot.writes;
  }
  std::vector<PrefixUsage> out;
  out.reserve(by_prefix.size());
  for (auto& [prefix, usage] : by_prefix) out.push_back(std::move(usage));
  std::sort(out.begin(), out.end(),
            [](const PrefixUsage& a, const PrefixUsage& b) {
              return a.registers > b.registers;
            });
  return out;
}

}  // namespace rts::sim
