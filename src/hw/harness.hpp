// Thread harness for running leader elections / TAS on real hardware:
// HwTrialPool parks `k` participant threads, builds an algorithm instance
// from the unified algo::AlgorithmId catalogue per election, releases the
// threads through futex words (std::atomic<std::uint32_t>::wait), and
// collects outcomes, per-thread shared-op counts, and wall-clock time.  Its
// run() also owns the deadline/retry loop that campaign hw cells and soak
// arrivals share.
//
// Hardware trials summarize into the same exec::TrialSummary contract as
// simulator trials (see exec/backend.hpp), so campaigns, aggregates, and
// reporters are backend-agnostic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algo/platform.hpp"
#include "algo/registry.hpp"
#include "exec/backend.hpp"
#include "fault/backoff.hpp"
#include "fault/plan.hpp"
#include "hw/platform.hpp"
#include "sim/types.hpp"
#include "telemetry/perf_counters.hpp"

namespace rts::hw {

/// Constructs the algorithm for up to n processes on the hardware platform.
/// Returns nullptr for kNativeAtomic (handled specially by the harness).
/// Requires algo::supports(id, exec::Backend::kHw).
std::unique_ptr<algo::ILeaderElect<HwPlatform>> make_hw_le(
    algo::AlgorithmId id, HwPlatform::Arena arena, int n);

/// Seed-stream salt for retry attempts: attempt a > 0 of an election on
/// `seed` runs on derive_seed(seed, kRetrySalt + a), so retries draw fresh
/// coins and fault draws without perturbing any other election's stream.
inline constexpr std::uint64_t kRetrySalt = 0xfa01'7e72;

/// Per-run knobs of HwTrialPool::run.
struct HwRunOptions {
  /// Shared-op budget per participant context (the step-limit watchdog; see
  /// hw::StepLimitReached).  Participants exceeding it abort; the trial
  /// reports them unfinished and is marked incomplete instead of hanging.
  std::uint64_t step_limit = UINT64_MAX;
  /// Wall-clock deadline per attempt, nanoseconds; 0 disables.  Each
  /// participant's context reads the clock after every shared op and throws
  /// ElectionCancelled once the deadline has passed -- the attempt ends
  /// timed_out instead of hanging the caller.
  std::uint64_t deadline_ns = 0;
  /// Attempts after a timed-out one, each on a salted seed (kRetrySalt)
  /// and preceded by backoff.delay_us(a, seed) microseconds of sleep.
  int max_retries = 0;
  fault::BackoffPolicy backoff;
  /// Seeded fault plan (see fault/plan.hpp): every attempt's participants
  /// are dealt plan->for_trial(attempt_seed, k).  The pointee must outlive
  /// the run; null (or an inactive plan) disables.
  const fault::FaultPlan* plan = nullptr;
};

/// One election as the caller sees it: the final attempt's outcomes, plus
/// what every attempt contributed (retries, faults, violations).
struct HwRunResult {
  int n = 0;  ///< capacity the object was built for
  int k = 0;  ///< participating threads
  std::vector<sim::Outcome> outcomes;
  std::vector<std::uint64_t> ops;   // shared-memory ops per thread
  /// The final attempt, from the participants' start line to the last
  /// participant's finish.
  double wall_seconds = 0.0;
  int winners = 0;
  std::size_t registers = 0;        // materialized in the pool
  std::size_t declared_registers = 0;
  /// False when the step-limit watchdog fired or the deadline cancelled
  /// the final attempt.
  bool completed = true;
  /// The deadline cancelled the final attempt.
  bool timed_out = false;
  int retries = 0;  ///< attempts after the first
  /// Faults dealt to the participants, summed over attempts.
  fault::FaultCounters faults;
  /// Every attempt's safety/liveness violations: two winners violate even
  /// on a cancelled attempt; a complete attempt must elect exactly one.
  std::vector<std::string> violations;
};

/// The backend-agnostic per-trial slice of a hardware run; feeds the same
/// exec::accumulate_trial fold as simulator trials.
exec::TrialSummary summarize_trial(const HwRunResult& result);

/// Pool-lifetime knobs (as opposed to the per-run HwRunOptions).
struct HwPoolOptions {
  /// CPU affinity list: participant pid is pinned to
  /// pin_cpus[pid % pin_cpus.size()].  Empty = unpinned.  On NUMA boxes,
  /// passing one socket's CPU list keeps the election's cache traffic
  /// on-node; interleaving two sockets' CPUs measures cross-node RMRs.
  std::vector<int> pin_cpus;
};

/// Persistent pool of `k` parked participant threads reused across hardware
/// trials: the per-trial cost drops from k thread spawns + joins to three
/// futex wakes (the job, the participants' start line, the completion).
/// The pool runs exactly k threads: an armed deadline travels with the job
/// into each participant's context, which polices it after every shared op.
/// The only way to run an hw election: one pool per campaign cell, soak
/// shard, or run_hw_many stream (a one-off election is a one-election
/// pool).  run() is not thread-safe -- callers serialize trials, which the
/// campaign executor does anyway to keep measured thread counts honest.
///
/// The algorithm instance and its register pool stay per-trial: unlike sim
/// kernels, hw object graphs race real threads, so each trial gets a fresh
/// build and only the threads are recycled.
class HwTrialPool {
 public:
  explicit HwTrialPool(int k, HwPoolOptions pool_options = {});
  ~HwTrialPool();

  HwTrialPool(const HwTrialPool&) = delete;
  HwTrialPool& operator=(const HwTrialPool&) = delete;

  int capacity() const { return k_; }
  /// Elections run so far, retry attempts included.
  std::uint64_t trials_run() const { return trials_run_; }

  /// Summed per-participant counter readings over every election this pool
  /// has run.  Each participant opens a perf_event counter group (cycles,
  /// instructions, cache-misses, dTLB-misses; see telemetry::PerfCounterGroup)
  /// and brackets each election with it.  All-invalid when perf_event_open
  /// is unavailable on this machine or any participant failed to open its
  /// group (a partial sum would undercount, which is worse than honestly
  /// reporting nothing).
  /// Call between trials only (same serialization rule as run()).
  telemetry::PerfCounts perf_totals() const;

  /// One election with the pool's k participants (k <= n), each calling
  /// elect() once; checks the exactly-one-winner invariant.  This is the
  /// deadline/retry loop of campaigns and soaks alike: attempt 0 runs on
  /// `seed`, and a timed-out attempt with retries left backs off and runs
  /// again on derive_seed(seed, kRetrySalt + a).
  ///
  /// Throws rts::Error, naming the participant and what() it threw, when
  /// anything other than the step-limit or deadline unwind escapes a
  /// participant's election (a std::bad_alloc, say).  The attempt still
  /// runs to its end first, so the pool stays usable.
  HwRunResult run(algo::AlgorithmId id, int n, std::uint64_t seed,
                  HwRunOptions options = {});

  /// Trial-indexed form: trial `trial` of the (id, n, k, seed0) stream, on
  /// the per-trial seed sim::run_le_trial uses, so a campaign cell's trial
  /// stream means the same thing on either backend.
  HwRunResult run_trial(algo::AlgorithmId id, int n, int trial,
                        std::uint64_t seed0, HwRunOptions options = {});

 private:
  void participant(int pid);
  void elect_once(int pid, const fault::ParticipantFault* fault);
  void shutdown();

  int k_;
  // The hand-off: 32-bit words waited on with std::atomic::wait.  run()
  // bumps job_ to release the participants parked on it (a bump with stop_
  // set ends them); participants line up at the start line on arrived_ and
  // phase_, where the last arrival stamps start_; remaining_ counts them
  // out, and the last one out stamps end_ and bumps done_, the one word
  // run() waits on.  start_, end_ and the result slots are published by
  // the remaining_ countdown and the release of done_.
  std::atomic<std::uint32_t> job_{0};
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> phase_{0};
  std::atomic<std::uint32_t> remaining_{0};
  std::atomic<std::uint32_t> done_{0};
  std::atomic<bool> stop_{false};
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point end_{};
  // Per-attempt job state: written by run() before it bumps job_, read by
  // participants after waking on it.
  algo::ILeaderElect<HwPlatform>* le_ = nullptr;  ///< null: native atomic
  std::atomic<std::uint64_t> native_bit_{0};
  std::uint64_t seed_ = 0;
  std::uint64_t step_limit_ = UINT64_MAX;
  HwRunResult* result_ = nullptr;  ///< participant pid writes slot pid
  const fault::TrialFaults* faults_ = nullptr;  ///< null: no faults dealt
  /// The attempt's deadline, armed on every participant's context.
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::atomic<int> aborted_{0};
  std::atomic<int> cancelled_{0};  ///< participants unwound on the deadline
  // The first participant whose election threw anything else claims
  // failed_pid_ and stores its exception; run() rethrows it as rts::Error.
  std::atomic<int> failed_pid_{-1};
  std::exception_ptr failure_;
  std::uint64_t trials_run_ = 0;
  HwPoolOptions pool_options_;
  // Slot pid is written only by participant pid, between the election and
  // its remaining_ countdown (which orders it before run() returns).
  std::vector<telemetry::PerfCounts> perf_slots_;
  std::atomic<int> perf_missing_{0};  ///< participants without a counter group
  std::vector<std::jthread> threads_;  ///< last member: joins first
};

/// Runs `trials` elections (n = k) through one persistent HwTrialPool and
/// the shared trial-order fold.
exec::Aggregate run_hw_many(algo::AlgorithmId id, int k, int trials,
                            std::uint64_t seed0, HwRunOptions options = {});

}  // namespace rts::hw
