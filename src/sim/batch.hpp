// Step-machine trial engine: blocks of B same-cell trials, without fibers.
//
// The fiber kernel (sim::Kernel + fibers) pays a fiber round-trip per step.
// This engine removes it: algorithms run as explicit state machines, and
// register values live in a flat structure-of-arrays bank (one 64-bit lane
// per in-flight trial per register slot).  The campaign executor runs every
// eligible cell here, one trial per block unless
// ExecutorOptions::sim_batch_lanes asks for lockstep lanes; wider blocks
// have not been measured faster than one lane.  Each lane keeps the
// kernel's own pid-ordered runnable set (sim/runnable_set.hpp: O(1)
// select, a finish costs one sorted-vector erase).  A per-lane active mask
// retires finished, crashed, and step-limit-starved trials without
// divergent control flow in the pass loop.
//
// Determinism contract (enforced by tests/test_batch_invariance.cpp and the
// CI batch-invariance job): for every *eligible* cell the engine reproduces
// the scalar path's exec::TrialSummary byte for byte, trial for trial --
// the same discipline that keeps fresh and pooled kernels interchangeable.
// Eligibility is decided by the algo catalogue (algo/batch.hpp): the
// algorithm must have a batch machine, and the adversary's schedule must be
// a pure function of (seed, observable runnable/steps state) -- uniform
// random, round-robin, sequential, and crash-after-ops qualify; adaptive,
// replay, and abort-injecting schedulers fall back to the scalar kernel.
// The engine replicates each eligible scheduler's decision procedure
// exactly (same PRNG streams, same pid-ordered runnable view, same lazy
// budget draws), and each machine replicates its algorithm's shared-memory
// op sequence and per-pid draw order exactly.  Trials are seeded by the
// same sim::trial_seed / sim::adversary_seed / derive_seed(seed, pid)
// chains as the scalar paths, so batching can never change a result --
// only how many trials are in flight at once.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/backend.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace rts::sim {

/// Scheduler replicas the engine can drive.  Each mirrors one catalogued
/// adversary whose decisions depend only on its seed and the pid-ordered
/// runnable set (plus per-pid step counts for the crash model).
enum class BatchSched : std::uint8_t {
  kUniformRandom,  // UniformRandomAdversary: runnable[rng.draw(count)]
  kRoundRobin,     // RoundRobinAdversary: cursor scan over pids
  kSequential,     // SequentialAdversary: lowest runnable pid
  kCrashAfterOps,  // CrashAfterOpsAdversary: random + seeded op budgets
};

/// One shared-memory request from a batch machine, or its final outcome.
struct BatchAction {
  enum class Kind : std::uint8_t { kRead, kWrite, kFinish };
  Kind kind = Kind::kRead;
  std::uint32_t reg = 0;    ///< bank slot (machine-defined layout)
  std::uint64_t value = 0;  ///< written value (kWrite)
  Outcome outcome = Outcome::kUnknown;  ///< kFinish only

  static BatchAction read(std::uint32_t reg) {
    BatchAction a;
    a.kind = Kind::kRead;
    a.reg = reg;
    return a;
  }
  static BatchAction write(std::uint32_t reg, std::uint64_t value) {
    BatchAction a;
    a.kind = Kind::kWrite;
    a.reg = reg;
    a.value = value;
    return a;
  }
  static BatchAction finish(Outcome outcome) {
    BatchAction a;
    a.kind = Kind::kFinish;
    a.outcome = outcome;
    return a;
  }
};

/// A batched algorithm: explicit state machines for every (lane, pid),
/// advanced one granted operation at a time.  Implementations live next to
/// the algorithms they mirror (algo/batch_machines.hpp); each must
/// reproduce the scalar algorithm's op sequence and per-pid PRNG draw order
/// exactly -- that is the whole bitwise-invariance contract.
class BatchAlgorithm {
 public:
  virtual ~BatchAlgorithm() = default;

  /// Number of register slots the machine's layout occupies in the bank.
  virtual std::size_t num_registers() const = 0;
  /// The analytic register count the scalar BuiltLe would declare (lazily
  /// materialized structures declare their full size).
  virtual std::size_t declared_registers() const = 0;

  /// Re-initializes every pid's machine state of `lane` for a fresh trial
  /// (the batch analog of Kernel::rewind + ILeaderElect::reset_trial_state).
  virtual void reset_trial(int lane) = 0;
  /// Runs (lane, pid)'s prologue to its first announcement -- the batch
  /// analog of SimProcess::start().  May draw from `rng`.
  virtual BatchAction start(int lane, int pid, support::PrngSource& rng) = 0;
  /// Delivers the granted op's result and runs local code to the next
  /// announcement or completion -- the analog of resume_with_result().
  virtual BatchAction resume(int lane, int pid, support::PrngSource& rng,
                             std::uint64_t result) = 0;
};

/// Configuration of one batched trial stream (one campaign cell).
struct BatchConfig {
  int n = 0;      ///< capacity the object is built for
  int k = 0;      ///< participants per trial (pids 0..k-1)
  int lanes = 0;  ///< trials in flight per block; clamped to [1, 64]
  std::uint64_t seed0 = 0;       ///< cell's base seed (sim::trial_seed chain)
  std::uint64_t step_limit = 0;  ///< Kernel::Options::step_limit equivalent
  BatchSched sched = BatchSched::kUniformRandom;
  /// CrashAfterOps budget bounds; defaults match adversary_factory's.
  std::uint64_t crash_min_ops = 4;
  std::uint64_t crash_max_ops = 24;
};

/// A pooled batched trial stream: built once per cell, reseeded per block.
/// run_block computes trials [first_trial, first_trial + count) of the
/// cell's seed stream and writes one scalar-identical summary per trial.
class BatchStream {
 public:
  virtual ~BatchStream() = default;
  virtual void run_block(int first_trial, int count,
                         exec::TrialSummary* out) = 0;
  virtual std::size_t declared_registers() const = 0;
};

inline constexpr int kMaxBatchLanes = 64;  // one bit per lane in the bank mask

/// Builds the engine for a machine + config.  `count` per block must be
/// <= min(lanes, 64).
std::unique_ptr<BatchStream> make_batch_stream(
    std::unique_ptr<BatchAlgorithm> algorithm, const BatchConfig& config);

}  // namespace rts::sim
