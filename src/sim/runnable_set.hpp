// The pid-ordered runnable set shared by the scalar kernel (sim::Kernel) and
// the step-machine engine (sim/batch.cpp): the pids with a pending
// operation, in ascending order.
//
// A dense sorted vector gives the schedulers O(1) select-by-rank, so
// `runnable[draw(count)]` stays one load; a bitmap beside it answers
// membership with one bit test.  Membership changes only when a process
// finishes or crashes -- at most k times per trial, while every step
// selects -- so the set pays on remove(): a binary search plus a memmove of
// at most 4 KB at k = 1024.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace rts::sim {

class RunnableSet {
 public:
  /// Empties the set over the pid universe [0, k).
  void reset(int k) {
    RTS_ASSERT(k >= 0);
    universe_ = k;
    words_.assign(static_cast<std::size_t>((k + 63) / 64), 0);
    pids_.clear();
    pids_.reserve(static_cast<std::size_t>(k));
  }

  /// Adds `pid`, which must exceed every pid already present (sets are
  /// filled in pid order, as processes finish their prologues).
  void push_back(int pid) {
    RTS_ASSERT(pid >= 0 && pid < universe_ &&
               (pids_.empty() || pids_.back() < pid));
    words_[word_of(pid)] |= bit_of(pid);
    pids_.push_back(pid);
  }

  /// Removes a member.
  void remove(int pid) {
    RTS_ASSERT(contains(pid));
    words_[word_of(pid)] &= ~bit_of(pid);
    pids_.erase(std::lower_bound(pids_.begin(), pids_.end(), pid));
  }

  /// Total over int: pids outside [0, k) are never members.
  bool contains(int pid) const {
    return static_cast<unsigned>(pid) < static_cast<unsigned>(universe_) &&
           (words_[word_of(pid)] & bit_of(pid)) != 0;
  }
  bool empty() const { return pids_.empty(); }
  /// Every member, ascending.  Iterators are invalidated by
  /// push_back/remove/reset.
  const std::vector<int>& pids() const { return pids_; }

 private:
  static std::size_t word_of(int pid) {
    return static_cast<std::size_t>(pid) >> 6;
  }
  static std::uint64_t bit_of(int pid) {
    return 1ULL << (static_cast<unsigned>(pid) & 63u);
  }

  std::vector<int> pids_;             // members, ascending
  std::vector<std::uint64_t> words_;  // membership bitmap over [0, universe_)
  int universe_ = 0;
};

}  // namespace rts::sim
