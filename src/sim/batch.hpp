// Step-machine trial engine: a one-trial, fiberless twin of Kernel::run.
//
// The fiber kernel (sim::Kernel + fibers) pays a fiber round-trip per step.
// This engine removes it: algorithms run as explicit state machines, one per
// pid, and register values live in a flat bank.  exec::TrialWorkspace picks
// the engine: run_le_trial_summary, the call under every campaign sim cell,
// runs each eligible trial on a pooled one-trial stream of this engine, and
// run_le_batch_trial runs longer blocks.  Everything else is the kernel's
// own: the pid-ordered runnable set (sim/runnable_set.hpp), the catalogue's
// sim::Adversary objects, asked for every decision through a kernel-less
// KernelView, and the trial fold (sim::fold_le_trial).  A block of trials
// runs one trial after another.
//
// Determinism contract (enforced by tests/test_batch_invariance.cpp and the
// CI batch-invariance job): for every *eligible* cell the engine reproduces
// the scalar path's exec::TrialSummary byte for byte, trial for trial --
// the same discipline that keeps fresh and pooled kernels interchangeable.
// Eligibility: the algorithm must have a machine (sim::LeBuilder::machine,
// filled from algo/batch.hpp), no RMR model may be armed, and the adversary
// must be oblivious-class.  An oblivious view shows no pending op, so
// such a scheduler decides from exactly what the engine has: the runnable
// set and the step counts.  The engine handles its steps, crashes and abort
// requests as Kernel::run does, and each machine replicates its algorithm's
// shared-memory op sequence and per-pid draw order exactly.  Trials are
// seeded by the same sim::trial_seed / sim::adversary_seed /
// derive_seed(seed, pid) chains as the scalar paths, so the engine can never
// change a result.
#pragma once

#include <cstdint>
#include <memory>

#include "exec/backend.hpp"
#include "sim/runner.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace rts::sim {

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

/// A batch algorithm: one explicit state machine per pid, advanced one
/// granted operation at a time.  Implementations live next to the
/// algorithms they mirror (algo/batch.cpp); each must reproduce the scalar
/// algorithm's op sequence and per-pid PRNG draw order exactly -- that is
/// the whole bitwise-invariance contract.
class BatchAlgorithm {
 public:
  virtual ~BatchAlgorithm() = default;

  /// Number of register slots the machine's layout occupies in the bank.
  virtual std::size_t num_registers() const = 0;
  /// The analytic register count the scalar BuiltLe would declare (lazily
  /// materialized structures declare their full size).
  virtual std::size_t declared_registers() const = 0;

  /// Resets pid's machine and runs its prologue to its first announcement
  /// -- the analog of SimProcess::start().  May draw from `rng`.
  virtual BatchAction start(int pid, support::PrngSource& rng) = 0;
  /// Delivers the granted op's result and runs local code to the next
  /// announcement or completion -- the analog of resume_with_result().
  virtual BatchAction resume(int pid, support::PrngSource& rng,
                             std::uint64_t result) = 0;
};

/// Configuration of one batched trial stream (one campaign cell).
struct BatchConfig {
  int n = 0;      ///< capacity the object is built for
  int k = 0;      ///< participants per trial (pids 0..k-1)
  int lanes = 0;  ///< trials one run_block call computes; clamped to [1, 64]
  std::uint64_t seed0 = 0;       ///< cell's base seed (sim::trial_seed chain)
  std::uint64_t step_limit = 0;  ///< Kernel::Options::step_limit equivalent
};

/// A pooled batched trial stream: built once per cell, reseeded per trial.
/// run_block computes trials [first_trial, first_trial + count) of the
/// cell's seed stream, one after another, and writes one scalar-identical
/// summary per trial.
class BatchStream {
 public:
  virtual ~BatchStream() = default;
  virtual void run_block(int first_trial, int count,
                         exec::TrialSummary* out) = 0;
};

/// Largest block (BatchConfig::lanes) one run_block call may compute.
inline constexpr int kMaxBatchLanes = 64;

/// Builds the engine for a machine, the cell's adversary factory, and a
/// config.  The factory must build oblivious-class adversaries.  `count`
/// per block must be <= min(lanes, 64).  `pooled`, when given, is the
/// engine's first pooled adversary (built by the same factory; the engine
/// reseeds it before each trial), so a caller that had to build one to
/// learn its class does not build it twice.
std::unique_ptr<BatchStream> make_batch_stream(
    std::unique_ptr<BatchAlgorithm> algorithm, AdversaryFactory adversary,
    const BatchConfig& config, std::unique_ptr<Adversary> pooled = nullptr);

}  // namespace rts::sim
