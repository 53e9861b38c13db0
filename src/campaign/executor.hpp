// Parallel campaign executor over both execution backends.
//
// Sim trials are deterministic and independent given their (cell, trial)
// seed -- the sim kernel is strictly single-threaded -- so a campaign is
// sharded across std::thread workers at trial granularity with work
// stealing: each worker owns a contiguous slice of the flattened trial
// index space and steals the upper half of the largest remaining slice when
// its own runs dry.
//
// Hardware cells run through the same claim loop but are pinned to
// one-at-a-time execution behind a mutex: an hw trial releases k real
// threads (the cell's hw::HwTrialPool) and measures their contention, so
// overlapping two hw trials (or an hw trial with another worker's hw
// trial) would dishonestly inflate the thread count under measurement.
// Sim trials keep running concurrently around them.  Each hw trial is one
// HwTrialPool::run call, which also runs the deadline/retry loop soaks use.
//
// Determinism: workers only *compute* trial summaries (into preallocated
// slots); aggregation happens afterwards on the calling thread, in trial
// order, via the same exec::accumulate_trial fold run_le_many and
// run_hw_many use.  Sim aggregates -- and hence reporter output -- are
// therefore bitwise identical for any worker count.  Hw summaries carry
// real scheduling noise (see exec/backend.hpp), but the fold over a fixed
// set of summaries is still deterministic.  The one exception is a campaign
// cut short by the time budget, where *which* trials ran depends on timing;
// such results are flagged `truncated`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "fault/backoff.hpp"
#include "fault/plan.hpp"
#include "sim/runner.hpp"
#include "telemetry/perf_counters.hpp"

namespace rts::campaign {

struct Progress {
  std::uint64_t trials_done = 0;
  std::uint64_t trials_total = 0;
  std::uint64_t cells_done = 0;  ///< cells with every trial finished
  std::uint64_t cells_total = 0;
  double elapsed_seconds = 0.0;
};

struct ExecutorOptions {
  /// Worker thread count; <= 0 picks std::thread::hardware_concurrency().
  int workers = 1;
  /// Wall-clock budget in seconds; 0 means unlimited.  Workers stop claiming
  /// trials once it expires (already-claimed trials finish).
  double time_budget_seconds = 0.0;
  /// Invoked roughly `progress_interval_seconds` apart from the calling
  /// thread while workers run (and once at completion).  Null disables.
  std::function<void(const Progress&)> on_progress;
  double progress_interval_seconds = 0.5;
  /// Record every sim trial's schedule + seeds into this directory: one
  /// .rtst file per sim cell plus MANIFEST.json (see sim/trace.hpp).
  /// Recording is pure observation -- aggregates and reporter bytes are
  /// unchanged.  Hw cells are not recordable (the OS scheduler is the
  /// adversary there) and are skipped.  Empty disables.
  std::string record_dir;
  /// Re-drive sim trials from traces previously recorded into this
  /// directory instead of constructing the spec's adversaries; trace
  /// headers are validated against the expanded cells, and a faithful
  /// replay reproduces the recorded campaign's reporter bytes exactly.  A
  /// trial whose replay diverges from its recorded digest is counted as an
  /// errored trial, loudly.  Hw cells re-run live.  Empty disables;
  /// mutually exclusive with record_dir.
  std::string replay_dir;
  /// CPU affinity list forwarded to every hw cell's HwTrialPool (see
  /// hw::HwPoolOptions::pin_cpus).  Empty = unpinned.
  std::vector<int> hw_pin_cpus;
  /// Seeded chaos plan (see fault/plan.hpp): participant faults are dealt
  /// to every hw trial's first attempt, and `die:` clauses kill campaign
  /// workers mid-run (worker 0 is immune, and a dying worker stops *before*
  /// claiming, so survivors steal its slice and results are unchanged).
  fault::FaultPlan fault_plan;
  /// Per-election wall-clock deadline for hw trials; 0 disables.  A
  /// timed-out trial is retried (fresh seed-derived faults each attempt) up
  /// to hw_max_retries times, paced by `backoff` (see hw::HwRunOptions);
  /// the final attempt's outcomes are kept either way, with retries /
  /// timed_out recorded, and a violation on any attempt is reported.
  std::uint64_t hw_deadline_ns = 0;
  int hw_max_retries = 2;
  fault::BackoffPolicy backoff;
  /// Cooperative cancellation: once *cancel is true workers stop claiming
  /// trials (already-claimed trials finish) and the result is flagged
  /// `interrupted`.  Typically fault::interrupt_flag(); null disables.
  const std::atomic<bool>* cancel = nullptr;
  /// Durable checkpointing (see fault/checkpoint.hpp): completed sim cells'
  /// per-trial summaries are written here, `checkpoint_every` completed
  /// cells per flush.  With `resume`, matching checkpoints in the directory
  /// preload their cells and only the remainder runs -- final reporter
  /// bytes equal an uninterrupted run's.  Mutually exclusive with
  /// record/replay.  Empty disables.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  bool resume = false;
  /// Fallback checkpoint written only when the run ends interrupted and no
  /// checkpoint_dir was set: completed sim cells land here so the campaign
  /// is resumable even if checkpointing wasn't requested up front.
  std::string interrupt_checkpoint_dir;
  /// Block size of the step-machine engine (sim/batch.hpp).  Every sim
  /// cell that neither records nor replays runs through
  /// exec::TrialWorkspace::run_le_trial_summary, which puts each eligible
  /// trial on the machines one at a time (a batch machine, an
  /// oblivious-class adversary, no armed RMR model) and the rest on the
  /// fiber kernel.  Only a value above 1 matters: an eligible cell then
  /// runs blocks of this many trials (clamped to sim::kMaxBatchLanes)
  /// through run_le_batch_trial, one after another, and the worker caches
  /// the block.  Machine summaries are bitwise-identical to the fiber
  /// kernel's (CI-gated), so this knob can never change results.
  int sim_batch_lanes = 0;
};

struct CellResult {
  CellSpec cell;
  /// Folded in trial order over the cell's *successful* trials; errored
  /// trials are excluded (they carry no meaningful step counts).
  exec::Aggregate agg;
  std::size_t declared_registers = 0;
  int trials_run = 0;             ///< < cell.trials only when truncated
  int incomplete_runs = 0;        ///< trials that hit the kernel step limit
  int error_runs = 0;             ///< trials that threw instead of finishing
  std::vector<std::string> first_errors;  ///< up to 3 error messages
  /// hw cells: summed per-participant hardware counters over the cell's
  /// trials; all-invalid when perf_event_open is unavailable.  Sim cells
  /// always all-invalid (nothing to measure).
  telemetry::PerfCounts perf;
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<CellResult> cells;  ///< in expansion order
  int workers_used = 1;
  double wall_seconds = 0.0;      ///< timing; never emitted by reporters
  std::uint64_t sim_steps = 0;    ///< total simulated shared-memory steps
  std::uint64_t hw_steps = 0;     ///< total hardware shared-memory ops
  bool truncated = false;
  /// The active fault plan's spec string; empty when no plan was set.
  /// Reporters gate the chaos fields on this (plus `deadlines`) so
  /// chaos-free campaigns keep their historical bytes.
  std::string fault_spec;
  bool deadlines = false;  ///< hw deadline/retry service was armed
  /// *Planned* first-attempt participant injections over the hw grid -- a
  /// deterministic function of (plan, spec), so checkpoint-resumed runs
  /// report identical bytes -- plus the worker deaths that actually fired
  /// (reported to stderr only, never in deterministic output).
  fault::FaultCounters faults;
  bool interrupted = false;        ///< workers stopped on the cancel flag
  std::uint64_t cells_resumed = 0; ///< cells preloaded from checkpoints
};

CampaignResult run_campaign(const CampaignSpec& spec,
                            const ExecutorOptions& options = {});

/// Renders a one-line progress callback writing to stderr, suitable for
/// ExecutorOptions::on_progress in interactive runs.
std::function<void(const Progress&)> stderr_progress(const char* label);

}  // namespace rts::campaign
