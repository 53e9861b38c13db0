// Shared vocabulary types for the asynchronous shared-memory model:
// operations, operation tags (which parts of the next op were decided by coin
// flips -- this is what separates the paper's adversary classes), and
// leader-election outcomes.
#pragma once

#include <cstdint>
#include <limits>

namespace rts::sim {

/// Index of a shared register inside a SimMemory.
using RegId = std::uint32_t;
inline constexpr RegId kInvalidReg = std::numeric_limits<RegId>::max();

/// Largest contention level k and object capacity n a run may name: the
/// bound of rts_bench's --ks and --n and of an .rtst header's n and k.
inline constexpr int kMaxProcesses = 1'000'000;

enum class OpKind : std::uint8_t { kRead, kWrite };

/// Marks which aspects of an operation were chosen at random by the process.
/// The kernel hides exactly these aspects from the corresponding adversary
/// class: a location-oblivious adversary cannot see the target register of a
/// pending op with `random_location`; an R/W-oblivious adversary cannot see
/// the kind (read vs write) of a pending op with `random_kind`.
struct OpTags {
  bool random_location = false;
  bool random_kind = false;
};

/// An announced-but-not-yet-executed shared-memory operation.
struct PendingOp {
  OpKind kind = OpKind::kRead;
  RegId reg = kInvalidReg;
  std::uint64_t value = 0;  // payload for writes
  OpTags tags;
};

/// Record of an executed operation, fed to kernel observers (event log,
/// covering-argument driver).
struct OpRecord {
  std::uint64_t step = 0;  // global step index (0-based)
  int pid = -1;
  OpKind kind = OpKind::kRead;
  RegId reg = kInvalidReg;
  std::uint64_t value = 0;  // value read / value written
  int prev_writer = -1;     // process visible on the register before this op
};

/// Result of a leader-election attempt.
enum class Outcome : std::uint8_t {
  kUnknown = 0,  // crashed / never finished
  kWin,
  kLose,
  kAbort,  // abortable algorithm honoured an adversary abort request
};

}  // namespace rts::sim
