// Open-loop soak harness for the hardware backend.
//
// Campaign hw cells are *closed-loop*: the next election starts only after
// the previous one finishes, so a slow election slows the request stream
// down and the measured latencies flatter the implementation (the classic
// coordinated-omission trap).  The soak driver is *open-loop*: election
// requests arrive on a fixed schedule (`rate` per second), timestamps are
// taken from the **scheduled arrival**, and elections drain through one
// persistent HwTrialPool -- so when the service falls behind, the queue
// wait is charged to every delayed election's latency, exactly as a
// production arbiter's callers would experience it.
//
// The chaos layer (src/fault/) turns the driver into an election *service*:
// per-election deadlines cancel wedged elections (watchdog-assisted),
// cancelled elections retry under capped exponential backoff with seeded
// jitter, and once the backlog crosses `shed_backlog` the driver sheds
// arrivals instead of queueing unboundedly.  Every arrival the driver
// handles lands in exactly one outcome bucket -- completed / timed_out /
// shed -- and `retried` counts the extra attempts; arrivals still queued
// when the wall deadline expires are simply not handled (the served vs
// planned gap the table has always shown).  Latency is recorded only for
// completed elections (honest absence, never fabricated success).  The
// deadline/retry loop is HwTrialPool::run's, one call per arrival, the
// same loop campaign hw cells use.
//
// The service is *sharded* (`shards`): N persistent HwTrialPool arenas,
// each with its own k participant threads, CPU-pinning partition, perf
// counter groups, and deadline watchdog, serve elections concurrently.  A
// dispatcher walks the open-loop arrival schedule, batches every arrival
// due at a wakeup into one pass, and routes each to the least-backlog
// shard (round-robin tie-break, see ShardRouter).  An arrival's seed
// stream is fixed by its schedule position alone -- never by the shard it
// lands on -- and the per-shard histograms, outcome counters, and perf
// totals merge *exactly* into the global report (LatencyHistogram::merge
// is elementwise and therefore associative/commutative), so for a fixed
// set of samples the merged percentiles are bitwise independent of the
// shard count.  The shed gate is per shard: an arrival whose least-backlog
// shard is still over `shed_backlog` is dropped, so total queueing is
// bounded by shards * shed_backlog.
//
// Arrivals are issued on time: for the length of the soak the dispatching
// thread runs at 1 ns timer slack, sleeps to a margin short of each
// arrival, and spins the rest of the way while no election is queued or in
// flight (only the dispatcher creates work, so the spin never takes a core
// an election uses).  Each completed arrival's latency is split into where
// it went -- generator lateness, queue wait and service -- so a harness
// gain is never read as a faster election.
//
// Latency unit is wall-clock nanoseconds (hw latency; see
// exec::TrialSummary::latency).  While running, the driver emits heartbeat
// lines (throughput, backlog, p99 so far and per latency term, degraded-mode
// flag) through the shared telemetry formatter.
#pragma once

#include <atomic>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "algo/registry.hpp"
#include "fault/backoff.hpp"
#include "fault/plan.hpp"
#include "telemetry/heartbeat.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/perf_counters.hpp"

namespace rts::campaign {

// The formatters grew out of this header and moved to telemetry/heartbeat;
// re-exported so existing call sites keep reading naturally.
using telemetry::format_ns;
using telemetry::heartbeat_line;

struct SoakSpec {
  std::string name = "soak";
  /// Algorithms soaked back to back; each gets its own pool and report.
  /// Every entry must support the hw backend.
  std::vector<algo::AlgorithmId> algorithms;
  int k = 4;  ///< participant threads per election
  int n = 0;  ///< object capacity; 0 means n = k
  double duration_seconds = 2.0;
  double rate = 1000.0;  ///< target election arrivals per second
  std::uint64_t seed = 1;
  /// Per-participant shared-op watchdog (see hw::HwRunOptions::step_limit).
  std::uint64_t step_limit = 10'000'000;
  double heartbeat_seconds = 0.5;
  /// Participant CPU pinning (see hw::HwPoolOptions::pin_cpus).
  std::vector<int> pin_cpus;
  /// Per-election deadline in nanoseconds; 0 disables.  A timed-out
  /// election is cancelled by the pool watchdog (cancellation is
  /// cooperative: participants notice at their next shared op).
  std::uint64_t deadline_ns = 0;
  /// Retry attempts after a deadline cancellation, paced by `backoff`.
  int max_retries = 2;
  fault::BackoffPolicy backoff;
  /// Shed arrivals once the backlog exceeds this many elections; 0 keeps
  /// the unbounded-queue behavior.
  std::uint64_t shed_backlog = 0;
  /// Seeded fault injection applied to every attempt (see fault/plan.hpp).
  fault::FaultPlan faults;
  /// Service shards: each is a persistent HwTrialPool (k participant
  /// threads) serving elections concurrently behind the least-backlog
  /// dispatcher.  1 keeps the serial single-pool service.
  int shards = 1;
  /// Cooperative cancellation hook, checked once per arrival; null
  /// disables.  Typically fault::interrupt_flag().
  const std::atomic<bool>* cancel = nullptr;
};

/// One shard's slice of a soak run.  The merged SoakResult view is the
/// exact fold of these (see merge_shard_stats); the per-shard blocks also
/// land in the rts-soak-4 report so hot shards are visible.  The four
/// histograms hold one sample each per completed arrival, split as in
/// SoakResult::latency.
struct ShardStats {
  std::uint64_t dispatched = 0;  ///< arrivals routed to this shard
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retried = 0;
  /// Arrivals shed because this shard -- the least-backlog choice at
  /// dispatch time -- was still over the gate.
  std::uint64_t shed = 0;
  std::uint64_t violations = 0;
  std::uint64_t incomplete = 0;
  std::uint64_t max_queue = 0;  ///< worst queued + in-flight depth observed
  fault::FaultCounters faults;
  telemetry::LatencyHistogram latency;
  telemetry::LatencyHistogram generator_lateness;
  telemetry::LatencyHistogram queue_wait;
  telemetry::LatencyHistogram service;
  telemetry::PerfCounts perf;
};

/// Least-backlog shard selection with deterministic round-robin
/// tie-breaking: among the shards with the minimal backlog, the first one
/// at or after the rotating cursor wins and the cursor advances past it.
/// Pure routing logic (no clocks, no threads) so shard-invariance tests
/// can drive it directly.
class ShardRouter {
 public:
  explicit ShardRouter(std::size_t shards);
  /// Picks a shard given one backlog per shard (size must match).
  std::size_t pick(const std::vector<std::uint64_t>& backlogs);

 private:
  std::size_t shards_;
  std::size_t next_ = 0;
};

/// The CPU-pinning partition for one shard: pin_cpus dealt round-robin
/// (cpu i belongs to shard i % shards, order preserved), so shards split a
/// socket's core list evenly.  Empty input stays empty (unpinned).
std::vector<int> shard_pin_slice(const std::vector<int>& pin_cpus, int shards,
                                 int shard);

struct SoakResult {
  algo::AlgorithmId algorithm{};
  int k = 0;
  int n = 0;
  double target_rate = 0.0;
  double duration_seconds = 0.0;  ///< requested
  double wall_seconds = 0.0;      ///< measured
  std::uint64_t planned = 0;      ///< arrivals the schedule called for
  std::uint64_t completed = 0;    ///< elections served within their deadline
  std::uint64_t timed_out = 0;    ///< elections cancelled after max_retries
  std::uint64_t retried = 0;      ///< extra attempts across all arrivals
  std::uint64_t shed = 0;         ///< arrivals dropped on the backlog gate
  std::uint64_t violations = 0;   ///< elections without exactly one winner
  std::uint64_t incomplete = 0;   ///< ended by the step watchdog or a throw
  std::uint64_t max_backlog = 0;  ///< worst arrivals-minus-served arrears
  bool degraded = false;          ///< the shedding gate engaged at least once
  bool interrupted = false;       ///< run ended early on SIGINT/SIGTERM
  /// Faults the plan dealt to the attempts actually run (exact counts).
  fault::FaultCounters faults;
  /// Nanoseconds from scheduled arrival to completion (queue wait
  /// included -- the open-loop, coordinated-omission-honest measure).
  /// Completed elections only: a timed-out election contributes a
  /// timed_out count, never a fabricated latency sample.  When *no*
  /// election completed the histogram is empty and reports render the
  /// latency block as absent -- the same unavailable-not-zero contract
  /// the perf counters follow -- never as fabricated zero percentiles.
  ///
  /// Each sample is split into three terms, recorded for the same
  /// arrivals from the same clock reads, so per arrival they add up
  /// exactly to its latency sample:
  ///   generator_lateness  scheduled -> issued (the dispatch pass's now),
  ///   queue_wait          issued -> the server starts HwTrialPool::run,
  ///   service             run start -> completion (retries and backoff
  ///                       included).
  telemetry::LatencyHistogram latency;
  telemetry::LatencyHistogram generator_lateness;
  telemetry::LatencyHistogram queue_wait;
  telemetry::LatencyHistogram service;
  /// Summed participant hardware counters; all-invalid when
  /// perf_event_open is unavailable (report as such, never as zeros).
  telemetry::PerfCounts perf;
  int shards = 1;  ///< service shards this run was served by
  /// One entry per shard; the global fields above are their exact fold
  /// (see merge_shard_stats).
  std::vector<ShardStats> shard_stats;
};

/// Folds per-shard stats into the result's global view.  Counter sums are
/// exact integer adds, the histograms merge elementwise, and the perf
/// totals add with the usual poison-on-mismatch contract (one shard
/// without counters makes the merged total honestly unavailable).  The
/// merged bytes depend only on the multiset of per-shard samples, never on
/// how many shards recorded them.
void merge_shard_stats(const std::vector<ShardStats>& shards,
                       SoakResult* result);

/// Named soak configurations (a registry separate from the CampaignSpec
/// presets: soaks are not campaign grids, and the frozen-preset schema
/// tests must not see them).
struct SoakPreset {
  const char* name;
  const char* title;
  SoakSpec spec;
};
const std::vector<SoakPreset>& all_soak_presets();
const SoakPreset* find_soak_preset(std::string_view name);

/// Soaks one algorithm.  Heartbeat lines go to `heartbeat` (null disables).
/// The calling thread is the dispatcher: it runs at 1 ns timer slack until
/// the call returns or throws, then gets its previous slack back.
SoakResult run_soak_one(const SoakSpec& spec, algo::AlgorithmId algorithm,
                        std::FILE* heartbeat);

/// Runs spec.algorithms back to back.  Stops early (returning the partial
/// results, including the interrupted algorithm's) when spec.cancel fires.
std::vector<SoakResult> run_soak(const SoakSpec& spec, std::FILE* heartbeat);

/// Human-facing final report (aligned table plus a counters line).
void report_soak_table(const SoakSpec& spec,
                       const std::vector<SoakResult>& results, std::FILE* out);

/// Machine-facing report (rts-soak-4): a header line then one JSON object
/// per algorithm, each carrying the merged view plus a per-shard block
/// array.  Invalid perf counters and the empty latency histograms (nothing
/// completed) are *absent*, never fabricated zeros; the faults block
/// appears only when a fault plan was active.
void report_soak_jsonl(const SoakSpec& spec,
                       const std::vector<SoakResult>& results, std::FILE* out);

}  // namespace rts::campaign
