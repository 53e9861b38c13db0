// Pooled per-worker trial state: the zero-allocation hot path under every
// campaign worker lane and sim::run_le_many.  It also chooses the engine:
// run_le_trial_summary runs each eligible trial on the fiberless step
// machines (sim/batch.hpp) and every other one on the fiber kernel.
//
// The fresh-kernel path (sim::run_le_once) pays, per trial: a Kernel, one
// guarded mmap stack + fiber + heap-allocated SimProcess and PrngSource per
// participant, and a full rebuild of the algorithm's register layout
// (including every register name).  None of that changes between trials of
// one campaign cell.  A TrialWorkspace builds each (builder, n, k) stream
// once and then *rewinds* it between trials:
//
//   * the Kernel's processes -- fibers on adopted pool stacks, bodies, rng
//     slots -- are constructed once and rewound to their entry points,
//   * the algorithm instance (and its interned register layout in
//     sim::SimMemory) is built once; registers are value-reset per trial,
//   * randomness comes from reseedable support::PrngSource slots instead of
//     a fresh heap allocation per process per trial.
//
// Determinism contract: a trial run through a reused workspace produces the
// exact LeRunResult fields that feed exec::TrialSummary -- and therefore
// byte-identical campaign aggregates and reporter output -- as the
// fresh-kernel path given the same seeds.  tests/test_workspace.cpp enforces
// this across the algorithm x adversary catalogue.  (The one intentional
// deviation: `regs_allocated` counts registers materialized lazily by
// *earlier* trials of the stream too; it feeds no aggregate.)
//
// A workspace is strictly single-threaded: one per worker lane, never
// shared.  Streams are keyed by a caller-chosen id (the campaign executor
// uses the cell index); keys must denote one fixed (builder, n, k, kernel
// options) configuration -- and, for run_le_trial and run_le_trial_summary,
// one fixed adversary factory: the stream pools its adversary object too,
// reseeding it between trials (sim::Adversary::reseed) instead of
// reallocating, so feeding one key trials from different factories would
// silently reseed the wrong scheduler.  Use distinct keys per (cell,
// adversary) stream, as the executor does.  A key's stream is a fiber
// stream (a rewound kernel) or, when run_le_trial_summary chose the step
// machines for it, a machine stream (a one-trial sim::BatchStream, which
// also fixes the key's seed0).  A recycled key with a new (n, k, kernel
// options) -- or, on a machine stream, a new seed0 -- rebuilds its stream,
// and a fiber-only call on a machine stream's key rebuilds it on fibers.
// One bounded LRU of prepared streams, of both kinds, caps the fibers,
// machines and registers a worker holds across cells.  run_le_batch_trial's
// block streams live apart from these, so one key may serve both.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/batch.hpp"
#include "sim/runner.hpp"
#include "support/rng.hpp"

namespace rts::exec {

/// Builds one cell's pooled batch stream (sim::BatchStream); invoked once
/// per (key, workspace) the first time the cell runs a batched trial.
using BatchStreamFactory = std::function<std::unique_ptr<sim::BatchStream>()>;

class TrialWorkspace {
 public:
  struct Options {
    /// Prepared streams kept alive at once; least-recently-used streams are
    /// torn down beyond this (their stacks return to the process-wide fiber
    /// pool, so the next stream build skips the mmap round-trip too).
    std::size_t max_prepared = 8;
  };

  TrialWorkspace() = default;
  explicit TrialWorkspace(Options options) : options_(options) {}

  TrialWorkspace(const TrialWorkspace&) = delete;
  TrialWorkspace& operator=(const TrialWorkspace&) = delete;

  /// Runs one election of stream `key` through the pooled kernel, exactly
  /// mirroring sim::run_le_once(builder, n, k, adversary, seed, options).
  sim::LeRunResult run_le_once(std::uint64_t key,
                               const sim::LeBuilder& builder, int n, int k,
                               sim::Adversary& adversary, std::uint64_t seed,
                               sim::Kernel::Options kernel_options = {});

  /// Trial-indexed form mirroring sim::run_le_trial: derives the trial seed
  /// from the stream's (seed0, trial) and drives the stream's *pooled*
  /// adversary, reseeded per trial; the factory only runs when the stream
  /// has no adversary yet or the pooled one cannot reseed itself.
  sim::LeRunResult run_le_trial(std::uint64_t key,
                                const sim::LeBuilder& builder, int n, int k,
                                const sim::AdversaryFactory& adversary_factory,
                                int trial, std::uint64_t seed0,
                                sim::Kernel::Options kernel_options = {});

  /// Direct-to-summary form of run_le_trial, byte-identical to
  /// summarize_trial(run_le_trial(...)) with zero per-trial allocation; the
  /// campaign executor's sim path runs on this.  The engine is chosen once
  /// per stream, before anything is built: when `builder` carries a machine
  /// (sim::LeBuilder::machine), `kernel_options` arm no RMR model and the
  /// pooled adversary is oblivious-class, the trial runs on a one-trial
  /// step-machine stream (no kernel, no fibers, no stacks).  Otherwise the
  /// kernel state of a fiber stream folds straight into the TrialSummary
  /// (sim::summarize_le_trial).
  TrialSummary run_le_trial_summary(std::uint64_t key,
                                    const sim::LeBuilder& builder, int n,
                                    int k,
                                    const sim::AdversaryFactory& factory,
                                    int trial, std::uint64_t seed0,
                                    sim::Kernel::Options kernel_options = {});

  /// Batched trial access: serves trial `trial` of the cell's stream from a
  /// pooled sim::BatchStream, computing blocks of `lanes` trials at a time
  /// (one after another) and caching the most recent block's summaries.
  /// Blocks are aligned to floor(trial / lanes) * lanes -- a pure function
  /// of the trial index -- so any executor order (work stealing,
  /// resume-from-checkpoint) computes identical blocks and therefore
  /// identical bytes.  `cell_trials` bounds the final partial block.  The
  /// factory only runs when `key` has no batch stream yet; keys must denote
  /// one fixed cell configuration (same contract as the scalar streams).
  TrialSummary run_le_batch_trial(std::uint64_t key,
                                  const BatchStreamFactory& factory,
                                  int lanes, int trial, int cell_trials);

  /// Observability for tests and benches.  Fiber and machine streams both
  /// count in prepared_streams(), trials_run(), stream_builds() and
  /// adversary_builds().
  std::size_t prepared_streams() const { return streams_.size(); }
  std::uint64_t trials_run() const { return trials_run_; }
  /// Batched trials served and blocks actually computed;
  /// `batch_trials_run() / batch_blocks_run()` ~ lanes when the access
  /// pattern is sequential.
  std::uint64_t batch_trials_run() const { return batch_trials_run_; }
  std::uint64_t batch_blocks_run() const { return batch_blocks_run_; }
  /// Stream (re)builds so far; `trials_run() - stream_builds()` trials ran
  /// allocation-free through a rewound kernel or a reused machine stream.
  std::uint64_t stream_builds() const { return stream_builds_; }
  /// Adversary allocations so far; stays at one per stream while every
  /// pooled adversary keeps reseeding successfully.
  std::uint64_t adversary_builds() const { return adversary_builds_; }

 private:
  /// One key's stream: a fiber stream (`kernel` set) or a machine stream
  /// (`machine` set); an entry with neither is not built yet.
  struct Stream {
    std::uint64_t key = 0;
    int n = 0;
    int k = 0;
    sim::Kernel::Options kernel_options;
    std::unique_ptr<sim::Kernel> kernel;
    sim::BuiltLe built;
    std::vector<sim::Outcome> outcomes;        // written by process bodies
    std::vector<support::PrngSource*> rngs;    // owned by kernel processes
    std::unique_ptr<sim::Adversary> adversary;  // pooled, reseeded per trial
    /// The step-machine engine, which pools its own adversary; its trial
    /// seeds come from `seed0`.
    std::unique_ptr<sim::BatchStream> machine;
    std::uint64_t seed0 = 0;
    std::uint64_t last_used = 0;
    bool fresh = true;  // no trial run since (re)build: skip the rewind

    bool shaped(int want_n, int want_k,
                const sim::Kernel::Options& want_options) const;
  };

  /// One cell's pooled batch stream plus its most recent block of
  /// summaries; sequential trial access recomputes a block once per
  /// `lanes` trials.
  struct BatchSlot {
    std::uint64_t key = 0;
    int lanes = 0;
    std::unique_ptr<sim::BatchStream> stream;
    int block_base = -1;  // first trial of the cached block; -1 = none
    std::vector<TrialSummary> block;
    std::uint64_t last_used = 0;
  };

  /// The key's stream entry, marked used; a new key gets an empty entry,
  /// evicting the least recently used stream beyond max_prepared.
  Stream& entry(std::uint64_t key);
  /// The key's fiber stream for (builder, n, k, kernel_options).
  Stream& prepare(std::uint64_t key, const sim::LeBuilder& builder, int n,
                  int k, sim::Kernel::Options kernel_options);
  void build(Stream& stream, const sim::LeBuilder& builder, int n, int k,
             sim::Kernel::Options kernel_options);
  sim::LeRunResult run_on_stream(Stream& stream, sim::Adversary& adversary,
                                 std::uint64_t seed);
  /// Rewinds + reseeds `stream` for `seed` and runs it; shared prologue of
  /// the LeRunResult and direct-to-summary paths.
  bool drive_stream(Stream& stream, sim::Adversary& adversary,
                    std::uint64_t seed);
  /// The pooled-adversary reseed-or-rebuild step shared by run_le_trial and
  /// run_le_trial_summary.
  sim::Adversary& trial_adversary(Stream& stream,
                                  const sim::AdversaryFactory& factory,
                                  std::uint64_t adversary_seed);

  Options options_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<BatchSlot>> batch_slots_;
  std::uint64_t clock_ = 0;
  std::uint64_t trials_run_ = 0;
  std::uint64_t stream_builds_ = 0;
  std::uint64_t adversary_builds_ = 0;
  std::uint64_t batch_trials_run_ = 0;
  std::uint64_t batch_blocks_run_ = 0;
};

}  // namespace rts::exec
