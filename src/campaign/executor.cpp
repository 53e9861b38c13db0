#include "campaign/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "algo/batch.hpp"
#include "campaign/reporter.hpp"
#include "campaign/soak.hpp"
#include "exec/workspace.hpp"
#include "fault/checkpoint.hpp"
#include "hw/harness.hpp"
#include "sim/adversaries.hpp"
#include "sim/trace.hpp"
#include "support/assert.hpp"

namespace rts::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// A worker's contiguous slice of the flattened trial index space.
struct Slice {
  std::size_t next = 0;
  std::size_t end = 0;
  std::size_t remaining() const { return end - next; }
};

/// Claims trial indices for one worker: first from its own slice, then by
/// stealing the upper half of the fattest remaining slice.  One mutex guards
/// all slices; a claim is two compares and an increment, while a trial is a
/// whole simulated election, so the lock is never contended in practice.
class WorkQueue {
 public:
  WorkQueue(std::size_t total, int workers) : slices_(workers) {
    const auto n = static_cast<std::size_t>(workers);
    // Deal out `total` in `workers` near-equal contiguous chunks.
    std::size_t begin = 0;
    for (std::size_t w = 0; w < n; ++w) {
      const std::size_t len = total / n + (w < total % n ? 1 : 0);
      slices_[w] = {begin, begin + len};
      begin += len;
    }
  }

  /// Returns false when no work is left anywhere (or the budget expired).
  bool claim(int worker, std::size_t* out, Clock::time_point deadline,
             bool has_deadline) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (has_deadline && Clock::now() >= deadline) {
      expired_ = true;
      return false;
    }
    Slice& mine = slices_[static_cast<std::size_t>(worker)];
    if (mine.next >= mine.end) {
      Slice* victim = nullptr;
      for (Slice& other : slices_) {
        if (other.remaining() > (victim ? victim->remaining() : 0)) {
          victim = &other;
        }
      }
      if (victim == nullptr) return false;
      const std::size_t steal = (victim->remaining() + 1) / 2;
      mine.next = victim->end - steal;
      mine.end = victim->end;
      victim->end = mine.next;
    }
    *out = mine.next++;
    return true;
  }

  bool expired() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return expired_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Slice> slices_;
  bool expired_ = false;
};

/// Loads and header-validates one cell's trace for replay.  Validation is
/// against the *expanded* cell, so a spec that drifted since the recording
/// (different algorithms, sweep, seeds, trial counts) fails before any
/// trial runs instead of replaying the wrong schedule.
std::shared_ptr<const sim::CellTrace> load_cell_trace(
    const std::string& replay_dir, const CellSpec& cell) {
  auto trace = std::make_shared<sim::CellTrace>();
  const std::string path =
      replay_dir + "/" + sim::cell_trace_filename(cell.index);
  std::string error;
  RTS_REQUIRE(sim::read_cell_trace_file(path, trace.get(), &error),
              (path + ": " + error).c_str());
  const auto check = [&](bool ok, const std::string& what) {
    RTS_REQUIRE(ok, (path + ": recorded " + what +
                     " does not match the campaign spec")
                        .c_str());
  };
  check(trace->algorithm == algo::info(cell.algorithm).name,
        "algorithm '" + trace->algorithm + "'");
  check(trace->adversary == algo::info(cell.adversary).name,
        "adversary '" + trace->adversary + "'");
  check(static_cast<int>(trace->n) == cell.n &&
            static_cast<int>(trace->k) == cell.k,
        "geometry (n, k)");
  check(trace->seed0 == cell.seed0, "seed stream");
  check(trace->step_limit == cell.step_limit, "step limit");
  check(trace->rmr == cell.rmr,
        std::string("rmr model '") + rmr::to_string(trace->rmr) + "'");
  check(trace->trials.size() >= static_cast<std::size_t>(cell.trials),
        "trial count " + std::to_string(trace->trials.size()));
  return trace;
}

/// Writes the per-cell .rtst files and MANIFEST.json of a recorded
/// campaign.  Called after aggregation on the calling thread, in cell
/// order, so the directory contents are as deterministic as the reporters.
void write_recorded_traces(const std::string& record_dir,
                           const CampaignResult& result,
                           const std::vector<CellSpec>& cells,
                           std::vector<sim::TrialTrace>& trial_traces,
                           const std::vector<unsigned char>& ran) {
  std::error_code ec;
  std::filesystem::create_directories(record_dir, ec);
  RTS_REQUIRE(!ec, ("cannot create trace directory '" + record_dir +
                    "': " + ec.message())
                       .c_str());
  const auto trials = static_cast<std::size_t>(result.spec.trials);
  std::vector<int> trials_recorded(cells.size(), 0);
  for (const CellSpec& cell : cells) {
    if (cell.backend != exec::Backend::kSim) continue;
    sim::CellTrace out;
    out.campaign = result.spec.name;
    out.algorithm = algo::info(cell.algorithm).name;
    out.adversary = algo::info(cell.adversary).name;
    out.cell_index = static_cast<std::uint32_t>(cell.index);
    out.n = static_cast<std::uint32_t>(cell.n);
    out.k = static_cast<std::uint32_t>(cell.k);
    out.seed0 = cell.seed0;
    out.step_limit = cell.step_limit;
    out.rmr = cell.rmr;
    // Only the contiguous ran prefix: a budget-truncated campaign may have
    // holes, and a trace with holes could not replay as a stream.
    const std::size_t base = static_cast<std::size_t>(cell.index) * trials;
    for (std::size_t t = 0; t < trials && ran[base + t]; ++t) {
      out.trials.push_back(std::move(trial_traces[base + t]));
    }
    trials_recorded[static_cast<std::size_t>(cell.index)] =
        static_cast<int>(out.trials.size());
    const std::string path =
        record_dir + "/" + sim::cell_trace_filename(cell.index);
    std::string error;
    RTS_REQUIRE(sim::write_cell_trace_file(path, out, &error),
                (path + ": " + error).c_str());
  }
  const std::string manifest_path = record_dir + "/MANIFEST.json";
  std::FILE* manifest = std::fopen(manifest_path.c_str(), "w");
  RTS_REQUIRE(manifest != nullptr,
              ("cannot write '" + manifest_path + "'").c_str());
  report_trace_manifest(result, manifest, &trials_recorded);
  std::fclose(manifest);
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec,
                            const ExecutorOptions& options) {
  const std::string problem = validate(spec);
  RTS_REQUIRE(problem.empty(), ("invalid campaign: " + problem).c_str());
  const bool record = !options.record_dir.empty();
  const bool replay = !options.replay_dir.empty();
  RTS_REQUIRE(!(record && replay),
              "a campaign cannot record and replay at once");
  const bool checkpointing = !options.checkpoint_dir.empty();
  RTS_REQUIRE(!(checkpointing && (record || replay)),
              "checkpointing cannot combine with record/replay (their "
              "directories carry per-trial state of their own)");
  RTS_REQUIRE(!options.resume || checkpointing,
              "resume needs the checkpoint directory");
  RTS_REQUIRE(options.checkpoint_every >= 1,
              "checkpoint interval must be at least one cell");
  RTS_REQUIRE(options.hw_max_retries >= 0,
              "hw retry count must be non-negative");

  int workers = options.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers < 1) workers = 1;
  }

  CampaignResult result;
  result.spec = spec;
  result.workers_used = workers;

  const std::vector<CellSpec> cells = expand(spec);
  const auto trials = static_cast<std::size_t>(spec.trials);
  const std::size_t total = cells.size() * trials;

  // Replay mode: load and validate every sim cell's trace up front, before
  // a single worker starts -- a drifted spec must fail fast and whole.
  std::vector<std::shared_ptr<const sim::CellTrace>> cell_traces(cells.size());
  if (replay) {
    for (const CellSpec& cell : cells) {
      if (cell.backend != exec::Backend::kSim) continue;
      cell_traces[static_cast<std::size_t>(cell.index)] =
          load_cell_trace(options.replay_dir, cell);
    }
  }
  // Record mode: workers fill preallocated per-trial trace slots (actions +
  // seeds + outcome digest); files are written after aggregation.
  std::vector<sim::TrialTrace> trial_traces(record ? total : 0);

  const std::uint64_t campaign_hash = spec_hash(spec);
  // Resume mode: preload every checkpointed cell's per-trial summaries into
  // the slots a live worker would have filled; the trial-order fold below
  // cannot tell the difference, which is the byte-identity guarantee.
  std::vector<unsigned char> preloaded(cells.size(), 0);
  std::vector<fault::CellCheckpoint> resumed;
  if (options.resume) {
    resumed = fault::load_checkpoints(options.checkpoint_dir, campaign_hash,
                                      spec.trials,
                                      static_cast<int>(cells.size()));
    for (const fault::CellCheckpoint& cell : resumed) {
      preloaded[static_cast<std::size_t>(cell.cell_index)] = 1;
    }
  }

  // Per-cell trial runners, built once and shared read-only by all workers.
  // Sim cells drive trials through the calling worker's pooled
  // exec::TrialWorkspace (keyed by cell index), so the kernel, fibers, and
  // register layout -- or the cell's step-machine stream -- are built once
  // per (worker, cell) and rewound between trials instead of reconstructed.
  // Hardware cells take the shared hw mutex so at most one hw election --
  // with its k real threads -- is in flight at a time, keeping measured
  // thread counts honest while sim cells keep running concurrently; the
  // current hw cell parks a persistent HwTrialPool of k participant
  // threads reused across its trials, with the cell's step limit armed as
  // the divergence watchdog.  One pool lives at a time -- trials claim
  // cells essentially in order, so this reuses threads within a cell
  // without accumulating parked threads across the whole hw grid.
  std::mutex hw_mutex;
  struct HwPoolSlot {
    int cell_index = -1;
    std::unique_ptr<hw::HwTrialPool> pool;
  };
  HwPoolSlot hw_pool;  // guarded by hw_mutex
  // Hardware-counter totals per cell, folded in when the cell's pool
  // retires (and once more for the final pool after workers join).
  std::vector<telemetry::PerfCounts> cell_perf(cells.size());
  const auto retire_hw_pool = [&hw_pool, &cell_perf] {
    // Caller holds hw_mutex (or the workers are already joined).
    if (hw_pool.pool != nullptr && hw_pool.cell_index >= 0) {
      cell_perf[static_cast<std::size_t>(hw_pool.cell_index)].add(
          hw_pool.pool->perf_totals());
    }
    hw_pool.cell_index = -1;
    hw_pool.pool.reset();  // joins the previous cell's threads
  };
  using TrialRunner =
      std::function<exec::TrialSummary(exec::TrialWorkspace&, int trial)>;
  std::vector<TrialRunner> runners;
  runners.reserve(cells.size());
  for (const CellSpec& cell : cells) {
    if (cell.backend == exec::Backend::kHw) {
      runners.push_back([&hw_mutex, &hw_pool, &retire_hw_pool, &options,
                         cell](exec::TrialWorkspace&, int trial) {
        std::lock_guard<std::mutex> pin(hw_mutex);
        if (hw_pool.cell_index != cell.index) {
          // Invalidate before rebuilding: if pool construction throws
          // (thread-resource exhaustion), a later trial must not take
          // the fast path into a null pool.
          retire_hw_pool();
          hw::HwPoolOptions pool_options;
          pool_options.pin_cpus = options.hw_pin_cpus;
          hw_pool.pool =
              std::make_unique<hw::HwTrialPool>(cell.k, pool_options);
          hw_pool.cell_index = cell.index;
        }
        // The pool runs the deadline/retry service; a trial still timed
        // out after its retries is reported as such, never as a completion.
        hw::HwRunOptions run_options;
        run_options.step_limit = cell.step_limit;
        run_options.deadline_ns = options.hw_deadline_ns;
        run_options.max_retries = options.hw_max_retries;
        run_options.backoff = options.backoff;
        run_options.plan = &options.fault_plan;
        return hw::summarize_trial(hw_pool.pool->run_trial(
            cell.algorithm, cell.n, trial, cell.seed0, run_options));
      });
      continue;
    }
    sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
    if (replay) {
      // Replay cells ignore the catalogue factory: the recorded schedule is
      // re-driven verbatim, and any divergence from the recorded digest
      // surfaces as an errored trial (exec/conformance.hpp is the richer,
      // multi-path form of this check).
      runners.push_back(
          [builder = std::move(builder),
           trace = cell_traces[static_cast<std::size_t>(cell.index)],
           cell](exec::TrialWorkspace& workspace, int trial) {
            const sim::TrialTrace& recorded =
                trace->trials[static_cast<std::size_t>(trial)];
            sim::ReplayAdversary adversary(&recorded.actions);
            sim::Kernel::Options kernel_options;
            kernel_options.step_limit = cell.step_limit;
            kernel_options.rmr_model = cell.rmr;
            const sim::LeRunResult result = workspace.run_le_once(
                static_cast<std::uint64_t>(cell.index), builder, cell.n,
                cell.k, adversary, recorded.trial_seed, kernel_options);
            const std::string drift = sim::replay_mismatch(recorded, result);
            if (!drift.empty()) {
              // Full provenance, so a mismatch in a thousand-cell replay
              // names its trial instead of reading "replay mismatch".
              throw Error("replay mismatch: campaign '" + trace->campaign +
                          "' cell " + std::to_string(cell.index) + " (" +
                          algo::info(cell.algorithm).name + " vs " +
                          algo::info(cell.adversary).name +
                          ", k=" + std::to_string(cell.k) + ") trial " +
                          std::to_string(trial) + ": " + drift);
            }
            return sim::summarize_trial(result);
          });
      continue;
    }
    sim::AdversaryFactory adversary = algo::adversary_factory(cell.adversary);
    if (record) {
      runners.push_back(
          [builder = std::move(builder), adversary = std::move(adversary),
           cell, traces = &trial_traces,
           trials](exec::TrialWorkspace& workspace, int trial) {
            const std::uint64_t seed = sim::trial_seed(cell.seed0, trial);
            const std::uint64_t adversary_seed = sim::adversary_seed(seed);
            sim::TrialTrace& out =
                (*traces)[static_cast<std::size_t>(cell.index) * trials +
                          static_cast<std::size_t>(trial)];
            out.trial_seed = seed;
            out.adversary_seed = adversary_seed;
            const std::unique_ptr<sim::Adversary> inner =
                adversary(adversary_seed);
            sim::RecordingAdversary recorder(*inner, &out.actions);
            sim::Kernel::Options kernel_options;
            kernel_options.step_limit = cell.step_limit;
            kernel_options.rmr_model = cell.rmr;
            const sim::LeRunResult result = workspace.run_le_once(
                static_cast<std::uint64_t>(cell.index), builder, cell.n,
                cell.k, recorder, seed, kernel_options);
            sim::fill_trace_result(out, result);
            return sim::summarize_trial(result);
          });
      continue;
    }
    // Longer machine blocks (sim_batch_lanes > 1) for an eligible cell: a
    // batch machine, a seedable oblivious-class adversary (algo/batch.hpp)
    // and no armed RMR model.
    if (options.sim_batch_lanes > 1 && cell.rmr == rmr::RmrModel::kNone &&
        algo::batch_supported(cell.algorithm) &&
        algo::batch_schedulable(cell.adversary)) {
      const int lanes = std::min(options.sim_batch_lanes, sim::kMaxBatchLanes);
      runners.push_back([cell, lanes](exec::TrialWorkspace& workspace,
                                      int trial) {
        return workspace.run_le_batch_trial(
            static_cast<std::uint64_t>(cell.index),
            [&cell, lanes] {
              return algo::make_batch_stream(cell.algorithm, cell.adversary,
                                             cell.n, cell.k, lanes,
                                             cell.seed0, cell.step_limit);
            },
            lanes, trial, cell.trials);
      });
      continue;
    }
    // The default: the workspace picks the engine (the step machines for
    // every eligible cell, the fiber kernel for the rest) and folds the
    // trial straight into its TrialSummary.
    runners.push_back(
        [builder = std::move(builder), adversary = std::move(adversary),
         cell](exec::TrialWorkspace& workspace, int trial) {
          sim::Kernel::Options kernel_options;
          kernel_options.step_limit = cell.step_limit;
          kernel_options.rmr_model = cell.rmr;
          return workspace.run_le_trial_summary(
              static_cast<std::uint64_t>(cell.index), builder, cell.n, cell.k,
              adversary, trial, cell.seed0, kernel_options);
        });
  }

  // Workers fill preallocated slots; nothing is aggregated concurrently.
  std::vector<exec::TrialSummary> summaries(total);
  std::vector<unsigned char> ran(total, 0);
  std::vector<unsigned char> errored(total, 0);
  std::atomic<std::uint64_t> done{0};
  // Per-cell finished-trial counts, so progress can report whole cells.
  // Workers bump a cell's count with acq_rel: the bump that completes the
  // cell synchronizes with every earlier bump's release, so the completing
  // worker reads the other workers' summary slots safely for checkpointing.
  std::unique_ptr<std::atomic<int>[]> cell_done(
      new std::atomic<int>[cells.size()]);
  for (std::size_t c = 0; c < cells.size(); ++c) cell_done[c].store(0);

  // Apply the resumed checkpoints to the same slots and counters.
  for (fault::CellCheckpoint& cell : resumed) {
    const std::size_t base =
        static_cast<std::size_t>(cell.cell_index) * trials;
    for (std::size_t t = 0; t < trials; ++t) {
      summaries[base + t] = std::move(cell.summaries[t]);
      ran[base + t] = cell.ran[t];
      errored[base + t] = cell.errored[t];
      if (cell.ran[t]) done.fetch_add(1, std::memory_order_relaxed);
    }
    cell_done[static_cast<std::size_t>(cell.cell_index)].store(
        spec.trials, std::memory_order_relaxed);
  }
  result.cells_resumed = resumed.size();
  resumed.clear();

  // Durable checkpoint machinery: the worker whose bump completes a sim
  // cell queues it; every checkpoint_every completions the queue flushes
  // (atomic tmp + rename per cell, see fault/checkpoint.hpp).
  std::mutex ckpt_mutex;
  std::vector<int> ckpt_pending;  // guarded by ckpt_mutex
  const auto checkpoint_cell = [&](const std::string& dir, int cell_index,
                                   bool warn) {
    const std::size_t c = static_cast<std::size_t>(cell_index);
    fault::CellCheckpoint out;
    out.cell_index = cell_index;
    out.ran.assign(ran.begin() + static_cast<std::ptrdiff_t>(c * trials),
                   ran.begin() + static_cast<std::ptrdiff_t>((c + 1) * trials));
    out.errored.assign(
        errored.begin() + static_cast<std::ptrdiff_t>(c * trials),
        errored.begin() + static_cast<std::ptrdiff_t>((c + 1) * trials));
    out.summaries.assign(
        summaries.begin() + static_cast<std::ptrdiff_t>(c * trials),
        summaries.begin() + static_cast<std::ptrdiff_t>((c + 1) * trials));
    std::string error;
    if (!fault::write_cell_checkpoint(dir, campaign_hash, out, &error) &&
        warn) {
      std::fprintf(stderr, "rts_bench: checkpoint write failed: %s\n",
                   error.c_str());
    }
  };
  const auto flush_pending = [&](bool force) {
    // Caller holds ckpt_mutex.
    if (ckpt_pending.empty() ||
        (!force && ckpt_pending.size() <
                       static_cast<std::size_t>(options.checkpoint_every))) {
      return;
    }
    for (const int cell_index : ckpt_pending) {
      checkpoint_cell(options.checkpoint_dir, cell_index, /*warn=*/true);
    }
    ckpt_pending.clear();
  };
  if (checkpointing) {
    std::string error;
    RTS_REQUIRE(fault::write_checkpoint_manifest(
                    options.checkpoint_dir, spec.name, campaign_hash,
                    spec.trials, static_cast<int>(cells.size()), &error),
                ("cannot write checkpoint manifest: " + error).c_str());
  }

  std::atomic<std::uint64_t> worker_deaths{0};
  std::atomic<bool> interrupted{false};
  const auto cells_finished = [&] {
    std::uint64_t finished = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cell_done[c].load(std::memory_order_relaxed) >= cells[c].trials) {
        ++finished;
      }
    }
    return finished;
  };
  std::atomic<int> active{workers};

  WorkQueue queue(total, workers);
  const Clock::time_point start = Clock::now();
  const bool has_deadline = options.time_budget_seconds > 0.0;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      has_deadline ? options.time_budget_seconds : 0.0));

  const auto worker_body = [&](int worker) {
    // Each worker lane owns one pooled workspace for the whole campaign.
    exec::TrialWorkspace workspace;
    const bool mortal = options.fault_plan.die_p > 0.0;
    std::uint64_t claims = 0;
    std::size_t g = 0;
    for (;;) {
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      // Simulated worker death (die: clause): the worker stops *before*
      // claiming, so no trial is lost -- survivors steal its slice and the
      // campaign's results are byte-identical with or without the deaths.
      if (mortal && options.fault_plan.worker_dies(spec.seed, worker,
                                                   claims++)) {
        worker_deaths.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (!queue.claim(worker, &g, deadline, has_deadline)) break;
      const std::size_t c = g / trials;
      if (ran[g]) continue;  // preloaded from a resume checkpoint
      const CellSpec& cell = cells[c];
      const int trial = static_cast<int>(g % trials);
      exec::TrialSummary summary;
      try {
        summary = runners[cell.index](workspace, trial);
      } catch (const std::exception& error) {
        summary.backend = cell.backend;
        summary.k = cell.k;
        summary.first_violation = error.what();
        errored[g] = 1;
      }
      summaries[g] = std::move(summary);
      ran[g] = 1;
      done.fetch_add(1, std::memory_order_relaxed);
      const int before = cell_done[c].fetch_add(1, std::memory_order_acq_rel);
      if (checkpointing && before + 1 == cell.trials &&
          cell.backend == exec::Backend::kSim && !preloaded[c]) {
        std::lock_guard<std::mutex> lock(ckpt_mutex);
        ckpt_pending.push_back(cell.index);
        flush_pending(/*force=*/false);
      }
    }
    active.fetch_sub(1, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker_body, w);

  if (options.on_progress) {
    const auto interval = std::chrono::duration<double>(
        options.progress_interval_seconds > 0.0
            ? options.progress_interval_seconds
            : 0.5);
    Clock::time_point last = start;
    while (active.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(
          std::min(std::chrono::duration<double>(0.05), interval));
      // The post-join block below fires the final 100% callback; firing it
      // here too would print the completion line twice.
      const Clock::time_point now = Clock::now();
      if (now - last >= interval &&
          active.load(std::memory_order_acquire) > 0) {
        last = now;
        Progress progress;
        progress.trials_done = done.load(std::memory_order_relaxed);
        progress.trials_total = total;
        progress.cells_done = cells_finished();
        progress.cells_total = cells.size();
        progress.elapsed_seconds =
            std::chrono::duration<double>(now - start).count();
        options.on_progress(progress);
      }
    }
  }
  for (std::thread& thread : threads) thread.join();
  retire_hw_pool();  // workers are joined; fold the last hw cell's counters
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.interrupted = interrupted.load(std::memory_order_relaxed);
  result.faults.worker_deaths =
      worker_deaths.load(std::memory_order_relaxed);

  if (checkpointing) {
    std::lock_guard<std::mutex> lock(ckpt_mutex);
    flush_pending(/*force=*/true);
  } else if (result.interrupted && !options.interrupt_checkpoint_dir.empty()) {
    // Interrupted without up-front checkpointing: salvage every completed
    // sim cell so the run is still resumable.
    std::string error;
    if (fault::write_checkpoint_manifest(
            options.interrupt_checkpoint_dir, spec.name, campaign_hash,
            spec.trials, static_cast<int>(cells.size()), &error)) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (cells[c].backend != exec::Backend::kSim) continue;
        if (cell_done[c].load(std::memory_order_acquire) < cells[c].trials) {
          continue;
        }
        checkpoint_cell(options.interrupt_checkpoint_dir,
                        static_cast<int>(c), /*warn=*/true);
      }
    } else {
      std::fprintf(stderr, "rts_bench: interrupt checkpoint failed: %s\n",
                   error.c_str());
    }
  }

  if (options.on_progress) {
    Progress progress;
    progress.trials_done = done.load(std::memory_order_relaxed);
    progress.trials_total = total;
    progress.cells_done = cells_finished();
    progress.cells_total = cells.size();
    progress.elapsed_seconds = result.wall_seconds;
    options.on_progress(progress);
  }

  // Sequential trial-order aggregation: the exact fold run_le_many performs,
  // so the numbers cannot depend on how trials were scheduled above.
  result.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellResult cell_result;
    cell_result.cell = cells[c];
    cell_result.perf = cell_perf[c];
    for (std::size_t t = 0; t < trials; ++t) {
      const std::size_t g = c * trials + t;
      if (!ran[g]) continue;
      const exec::TrialSummary& summary = summaries[g];
      ++cell_result.trials_run;
      if (errored[g]) {
        // Errored trials carry no step counts; folding them in would skew
        // the statistics with synthetic zeros.  Count and report instead.
        ++cell_result.error_runs;
        if (cell_result.first_errors.size() < 3) {
          cell_result.first_errors.push_back(summary.first_violation);
        }
        continue;
      }
      exec::accumulate_trial(cell_result.agg, summary);
      if (!summary.completed) ++cell_result.incomplete_runs;
      if (cell_result.declared_registers == 0) {
        cell_result.declared_registers = summary.declared_registers;
      }
      if (cells[c].backend == exec::Backend::kHw) {
        result.hw_steps += summary.total_steps;
      } else {
        result.sim_steps += summary.total_steps;
      }
    }
    if (cell_result.trials_run < cells[c].trials) result.truncated = true;
    result.cells.push_back(std::move(cell_result));
  }
  if (queue.expired()) result.truncated = true;
  if (record) {
    write_recorded_traces(options.record_dir, result, cells, trial_traces,
                          ran);
  }
  // Chaos provenance for the reporters.  The participant-fault counters are
  // the *planned* first-attempt injections over the hw grid -- a pure
  // function of (plan, spec), so a checkpoint-resumed run reports the same
  // bytes as an uninterrupted one (retry attempts and worker deaths are
  // wall-clock-dependent and stay out of deterministic output).
  if (options.fault_plan.active()) {
    result.fault_spec = options.fault_plan.spec;
    for (const CellSpec& cell : cells) {
      if (cell.backend != exec::Backend::kHw) continue;
      for (int t = 0; t < cell.trials; ++t) {
        result.faults.add(options.fault_plan.for_trial(
            sim::trial_seed(cell.seed0, t), cell.k));
      }
    }
  }
  result.deadlines = options.hw_deadline_ns > 0;
  return result;
}

std::function<void(const Progress&)> stderr_progress(const char* label) {
  const std::string tag = label != nullptr ? label : "campaign";
  return [tag](const Progress& progress) {
    // Same heartbeat shape as the soak driver, plus the cell counter (a
    // campaign's natural unit of "how far along are we").
    char extra[96];
    const double cell_rate =
        progress.elapsed_seconds > 0.0
            ? static_cast<double>(progress.cells_done) /
                  progress.elapsed_seconds
            : 0.0;
    std::snprintf(extra, sizeof extra, "cells %llu/%llu  %.1f cells/s",
                  static_cast<unsigned long long>(progress.cells_done),
                  static_cast<unsigned long long>(progress.cells_total),
                  cell_rate);
    const std::string line =
        heartbeat_line(tag, progress.elapsed_seconds, progress.trials_done,
                       progress.trials_total, "trials", extra);
    std::fprintf(stderr, "\r%s", line.c_str());
    if (progress.trials_done >= progress.trials_total) {
      std::fputc('\n', stderr);
    }
    std::fflush(stderr);
  };
}

}  // namespace rts::campaign
