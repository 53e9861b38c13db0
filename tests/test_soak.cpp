// Tests for the sharded soak service (PR: multi-pool election service):
//
//  * ShardRouter: least-backlog selection, deterministic round-robin
//    tie-breaking, cursor continuity across picks,
//  * shard_pin_slice: round-robin CPU partition, ragged and empty cases,
//  * merge_shard_stats: merged histogram bytes (latency and its three
//    terms) and outcome totals are a pure function of the sample multiset
//    -- identical however the samples are partitioned across 1/2/4 shards,
//  * the empty-latency contract: a run where nothing completed renders the
//    latency and term blocks as *absent* (jsonl) / "-" (table), never
//    fabricated zero percentiles,
//  * end-to-end sharded soak: every dispatched arrival lands in exactly
//    one outcome bucket and the merged view equals the per-shard fold,
//  * outcome-taxonomy totals identical across shard counts on a fixed,
//    sustainable schedule,
//  * the latency split: generator lateness, queue wait and service add up
//    to each arrival's latency, and the dispatcher's fine timer slack is
//    undone when the soak returns,
//  * checked CLI numeric parsing (the atoi-hardening bugfix),
//  * HwTrialPool deadline shutdown ordering: repeated
//    construct/cancel/destruct stress (ASan/UBSan coverage) and the
//    stale-deadline regression (each attempt carries its own deadline),
//  * the one deadline/retry loop: the same forced timeouts counted alike
//    by HwTrialPool::run, a campaign hw cell, and a soak.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "algo/registry.hpp"
#include "campaign/cli.hpp"
#include "campaign/executor.hpp"
#include "campaign/soak.hpp"
#include "fault/plan.hpp"
#include "hw/harness.hpp"
#include "telemetry/histogram.hpp"

namespace rts::campaign {
namespace {

// ---------------------------------------------------------- ShardRouter --

TEST(ShardRouter, SingleShardAlwaysPicksZero) {
  ShardRouter router(1);
  const std::vector<std::uint64_t> backlogs{7};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(router.pick(backlogs), 0u);
}

TEST(ShardRouter, TiesBreakRoundRobin) {
  ShardRouter router(3);
  const std::vector<std::uint64_t> tied{4, 4, 4};
  EXPECT_EQ(router.pick(tied), 0u);
  EXPECT_EQ(router.pick(tied), 1u);
  EXPECT_EQ(router.pick(tied), 2u);
  EXPECT_EQ(router.pick(tied), 0u);
}

TEST(ShardRouter, PicksStrictLeastBacklog) {
  ShardRouter router(3);
  EXPECT_EQ(router.pick({5, 2, 7}), 1u);
  EXPECT_EQ(router.pick({3, 3, 1}), 2u);
  EXPECT_EQ(router.pick({9, 0, 9}), 1u);
}

TEST(ShardRouter, CursorResumesPastTheLastPick) {
  ShardRouter router(3);
  // A forced pick of shard 1 leaves the cursor at 2, so the next all-tied
  // pick starts there instead of resetting to 0.
  EXPECT_EQ(router.pick({1, 0, 1}), 1u);
  const std::vector<std::uint64_t> tied{0, 0, 0};
  EXPECT_EQ(router.pick(tied), 2u);
  EXPECT_EQ(router.pick(tied), 0u);
  EXPECT_EQ(router.pick(tied), 1u);
}

// ------------------------------------------------------ shard_pin_slice --

TEST(ShardPinSlice, DealsCpusRoundRobin) {
  const std::vector<int> cpus{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(shard_pin_slice(cpus, 2, 0), (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(shard_pin_slice(cpus, 2, 1), (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(shard_pin_slice(cpus, 1, 0), cpus);
}

TEST(ShardPinSlice, RaggedAndEmptyInputs) {
  EXPECT_TRUE(shard_pin_slice({}, 4, 2).empty());
  // Fewer CPUs than shards: the tail shards run unpinned.
  const std::vector<int> one{7};
  EXPECT_EQ(shard_pin_slice(one, 2, 0), (std::vector<int>{7}));
  EXPECT_TRUE(shard_pin_slice(one, 2, 1).empty());
}

// ----------------------------------------------------- merge invariance --

/// Deterministic pseudo-latencies (no clocks: the invariance being tested
/// is a property of the merge, not of any particular run).
std::vector<std::uint64_t> synthetic_samples(std::size_t count) {
  std::vector<std::uint64_t> samples;
  samples.reserve(count);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < count; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    samples.push_back((x >> 33) % 50'000'000);  // 0..50ms in ns
  }
  return samples;
}

SoakResult merged_over(const std::vector<std::uint64_t>& samples, int shards) {
  std::vector<ShardStats> stats(static_cast<std::size_t>(shards));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ShardStats& shard = stats[i % static_cast<std::size_t>(shards)];
    ++shard.dispatched;
    ++shard.completed;
    // A split of each sample into the three terms, as serve_one records.
    const std::uint64_t lateness = samples[i] / 7;
    const std::uint64_t queue_wait = samples[i] / 3;
    shard.latency.record(samples[i]);
    shard.generator_lateness.record(lateness);
    shard.queue_wait.record(queue_wait);
    shard.service.record(samples[i] - lateness - queue_wait);
  }
  SoakResult result;
  merge_shard_stats(stats, &result);
  return result;
}

TEST(MergeShardStats, HistogramBytesInvariantAcrossShardCounts) {
  const std::vector<std::uint64_t> samples = synthetic_samples(5000);
  const SoakResult one = merged_over(samples, 1);
  using Histogram = telemetry::LatencyHistogram SoakResult::*;
  const std::pair<const char*, Histogram> histograms[] = {
      {"latency", &SoakResult::latency},
      {"generator_lateness", &SoakResult::generator_lateness},
      {"queue_wait", &SoakResult::queue_wait},
      {"service", &SoakResult::service}};
  for (const int shards : {2, 4}) {
    const SoakResult split = merged_over(samples, shards);
    EXPECT_EQ(split.completed, one.completed);
    for (const auto& [name, member] : histograms) {
      const telemetry::LatencyHistogram& got = split.*member;
      const telemetry::LatencyHistogram& want = one.*member;
      EXPECT_EQ(got.count(), samples.size()) << name;
      EXPECT_EQ(got.min(), want.min()) << name;
      EXPECT_EQ(got.max(), want.max()) << name;
      // The merge is an elementwise add, so every bucket -- not just the
      // published percentiles -- must match the single-shard fold exactly.
      for (std::size_t b = 0; b < telemetry::LatencyHistogram::kBucketCount;
           ++b) {
        ASSERT_EQ(got.bucket_count_at(b), want.bucket_count_at(b))
            << name << " bucket " << b << " diverged at " << shards
            << " shards";
      }
      EXPECT_EQ(got.p50(), want.p50()) << name;
      EXPECT_EQ(got.p99(), want.p99()) << name;
      EXPECT_EQ(got.p999(), want.p999()) << name;
    }
  }
}

TEST(MergeShardStats, CounterSumsAreExact) {
  std::vector<ShardStats> stats(2);
  stats[0].completed = 3;
  stats[0].timed_out = 1;
  stats[0].retried = 4;
  stats[0].shed = 2;
  stats[0].violations = 1;
  stats[0].incomplete = 1;
  stats[0].faults.stalls = 5;
  stats[1].completed = 7;
  stats[1].timed_out = 2;
  stats[1].retried = 1;
  stats[1].shed = 3;
  stats[1].faults.no_shows = 2;
  SoakResult result;
  // Pre-poison the merged fields: merge must *replace*, not accumulate.
  result.completed = 99;
  result.latency.record(12345);
  merge_shard_stats(stats, &result);
  EXPECT_EQ(result.shards, 2);
  EXPECT_EQ(result.completed, 10u);
  EXPECT_EQ(result.timed_out, 3u);
  EXPECT_EQ(result.retried, 5u);
  EXPECT_EQ(result.shed, 5u);
  EXPECT_EQ(result.violations, 1u);
  EXPECT_EQ(result.incomplete, 1u);
  EXPECT_EQ(result.faults.stalls, 5u);
  EXPECT_EQ(result.faults.no_shows, 2u);
  EXPECT_TRUE(result.latency.empty());  // no shard recorded a sample
  EXPECT_EQ(result.shard_stats.size(), 2u);
}

// ------------------------------------------------ empty-latency contract --

TEST(LatencyContract, EmptyHistogramReportsZeroNeverFabricates) {
  // The histogram side of the unavailable-not-zero contract: empty is
  // detectable (empty()), and the nearest-rank percentile of an empty
  // multiset is a documented 0 sentinel the reporters must gate on.
  telemetry::LatencyHistogram empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile(0.99), 0u);
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_EQ(empty.max(), 0u);
}

/// An all-shed run: 10 arrivals planned, every one dropped on the gate.
SoakResult all_shed_result() {
  std::vector<ShardStats> stats(1);
  stats[0].shed = 10;
  SoakResult result;
  result.algorithm = algo::AlgorithmId::kTournament;
  result.k = 2;
  result.n = 2;
  result.target_rate = 100.0;
  result.duration_seconds = 0.1;
  result.wall_seconds = 0.1;
  result.planned = 10;
  result.degraded = true;
  merge_shard_stats(stats, &result);
  return result;
}

std::string render(void (*reporter)(const SoakSpec&,
                                    const std::vector<SoakResult>&,
                                    std::FILE*),
                   const SoakSpec& spec,
                   const std::vector<SoakResult>& results) {
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* mem = open_memstream(&buffer, &size);
  reporter(spec, results, mem);
  std::fclose(mem);
  std::string text(buffer, size);
  std::free(buffer);
  return text;
}

TEST(LatencyContract, AllShedRunOmitsTheJsonlLatencyBlock) {
  SoakSpec spec;
  spec.algorithms = {algo::AlgorithmId::kTournament};
  spec.shed_backlog = 4;
  const std::vector<SoakResult> results{all_shed_result()};
  const std::string jsonl = render(report_soak_jsonl, spec, results);
  EXPECT_NE(jsonl.find("\"schema\":\"rts-soak-4\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"shed\":10"), std::string::npos);
  EXPECT_NE(jsonl.find("\"degraded\":true"), std::string::npos);
  // Nothing completed: no latency distribution exists, so the block and
  // its three term blocks are absent -- in the merged cell and in the
  // per-shard block alike.
  for (const char* block : {"\"latency\"", "\"generator_lateness\"",
                            "\"queue_wait\"", "\"service\""}) {
    EXPECT_EQ(jsonl.find(block), std::string::npos) << block;
  }
  EXPECT_EQ(jsonl.find("\"p99\""), std::string::npos);
}

TEST(LatencyContract, AllShedRunRendersDashesInTheTable) {
  SoakSpec spec;
  spec.algorithms = {algo::AlgorithmId::kTournament};
  const std::vector<SoakResult> results{all_shed_result()};
  const std::string table = render(report_soak_table, spec, results);
  // The percentile columns show absence, not format_ns(0).
  EXPECT_NE(table.find(" - "), std::string::npos);
  EXPECT_EQ(table.find("0ns"), std::string::npos);
  // So does every term of the latency split.
  EXPECT_NE(table.find("terms[tournament]:  generator_lateness p50 - p99 -  "
                       "queue_wait p50 - p99 -  service p50 - p99 -\n"),
            std::string::npos)
      << table;
}

// ------------------------------------------------------ end-to-end soak --

SoakSpec sharded_spec(int shards) {
  SoakSpec spec;
  spec.algorithms = {algo::AlgorithmId::kTournament};
  spec.k = 2;
  spec.duration_seconds = 0.4;
  spec.rate = 50.0;  // 20 arrivals, 20ms apart: sustainable everywhere
  spec.seed = 77;
  spec.heartbeat_seconds = 10.0;  // no heartbeats in tests
  spec.shards = shards;
  return spec;
}

TEST(ShardedSoak, MergedViewEqualsThePerShardFold) {
  const SoakSpec spec = sharded_spec(3);
  const SoakResult result =
      run_soak_one(spec, spec.algorithms.front(), nullptr);
  EXPECT_EQ(result.shards, 3);
  ASSERT_EQ(result.shard_stats.size(), 3u);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_GT(result.completed, 0u);
  // Outcome bookkeeping: every arrival the dispatcher handled is in
  // exactly one bucket, latency samples come from completions only.
  EXPECT_EQ(result.latency.count(), result.completed);
  EXPECT_LE(result.completed + result.timed_out + result.shed, result.planned);
  std::uint64_t completed = 0, dispatched = 0, shed = 0;
  telemetry::LatencyHistogram refold;
  for (const ShardStats& shard : result.shard_stats) {
    completed += shard.completed;
    dispatched += shard.dispatched;
    shed += shard.shed;
    // No deadline in this spec: a dispatched arrival always completes.
    EXPECT_EQ(shard.dispatched, shard.completed + shard.timed_out);
    refold.merge(shard.latency);
  }
  EXPECT_EQ(completed, result.completed);
  EXPECT_EQ(shed, result.shed);
  EXPECT_EQ(dispatched, result.completed + result.timed_out);
  EXPECT_EQ(refold.count(), result.latency.count());
  EXPECT_EQ(refold.max(), result.latency.max());
}

TEST(ShardedSoak, OutcomeTotalsInvariantAcrossShardCounts) {
  // A fixed sustainable schedule (no deadline, no shedding) completes every
  // planned arrival, so the outcome-taxonomy totals cannot depend on the
  // shard count: {completed: planned, timed_out: 0, shed: 0}.
  for (const int shards : {1, 2, 4}) {
    const SoakSpec spec = sharded_spec(shards);
    const SoakResult result =
        run_soak_one(spec, spec.algorithms.front(), nullptr);
    EXPECT_EQ(result.completed, result.planned) << shards << " shards";
    EXPECT_EQ(result.timed_out, 0u);
    EXPECT_EQ(result.shed, 0u);
    EXPECT_EQ(result.violations, 0u);
    EXPECT_FALSE(result.degraded);
    EXPECT_EQ(result.latency.count(), result.planned);
  }
}

// ------------------------------------------------------ latency split --

TEST(LatencySplit, TermsAddUpToTheLatencyOfEachArrival) {
  // Each completed arrival records latency and its three terms from the
  // same clock reads, in integer nanoseconds, so the four histograms hold
  // the same arrivals and their sums agree exactly; the means may differ
  // only by the rounding of three divisions.
  for (const int shards : {1, 2}) {
    SoakSpec spec = sharded_spec(shards);
    spec.duration_seconds = 0.3;
    spec.rate = 2000.0;
    const SoakResult result =
        run_soak_one(spec, spec.algorithms.front(), nullptr);
    ASSERT_GT(result.completed, 0u) << shards << " shards";
    EXPECT_EQ(result.latency.count(), result.completed);
    EXPECT_EQ(result.generator_lateness.count(), result.latency.count());
    EXPECT_EQ(result.queue_wait.count(), result.latency.count());
    EXPECT_EQ(result.service.count(), result.latency.count());
    EXPECT_NEAR(result.generator_lateness.mean() + result.queue_wait.mean() +
                    result.service.mean(),
                result.latency.mean(), 1.0)
        << shards << " shards";
    for (const ShardStats& shard : result.shard_stats) {
      EXPECT_EQ(shard.generator_lateness.count(), shard.latency.count());
      EXPECT_EQ(shard.queue_wait.count(), shard.latency.count());
      EXPECT_EQ(shard.service.count(), shard.latency.count());
    }
  }
}

#if defined(__linux__)
TEST(LatencySplit, DispatcherGetsItsTimerSlackBack) {
  // The dispatcher runs at 1 ns slack only for the length of the soak: a
  // normal run and a run cancelled before its first arrival both hand the
  // caller's slack back.
  constexpr int kSlackNs = 123456;
  const int before = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  ASSERT_EQ(prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(kSlackNs), 0,
                  0, 0),
            0);
  SoakSpec spec = sharded_spec(1);
  spec.duration_seconds = 0.05;
  spec.rate = 200.0;
  const SoakResult served =
      run_soak_one(spec, spec.algorithms.front(), nullptr);
  EXPECT_GT(served.completed, 0u);
  EXPECT_EQ(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0), kSlackNs);

  std::atomic<bool> cancel{true};
  spec.cancel = &cancel;
  const SoakResult cancelled =
      run_soak_one(spec, spec.algorithms.front(), nullptr);
  EXPECT_TRUE(cancelled.interrupted);
  EXPECT_EQ(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0), kSlackNs);
  prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(before), 0, 0, 0);
}
#endif

// ------------------------------------------------- checked flag parsing --

TEST(CheckedFlags, IntegerParserRejectsGarbage) {
  EXPECT_FALSE(parse_integer_flag("--ks", "banana", 1, 100));
  EXPECT_FALSE(parse_integer_flag("--ks", "", 1, 100));
  EXPECT_FALSE(parse_integer_flag("--ks", "12junk", 1, 100));
  EXPECT_FALSE(parse_integer_flag("--ks", "4,8", 1, 100));
  EXPECT_FALSE(parse_integer_flag("--trials", "-5", 1, 100));
  EXPECT_FALSE(parse_integer_flag("--trials", "0", 1, 100));
  EXPECT_FALSE(parse_integer_flag("--trials", "101", 1, 100));
  EXPECT_EQ(parse_integer_flag("--trials", "42", 1, 100), 42);
  EXPECT_EQ(parse_integer_flag("--workers", "0", 0, 100), 0);
}

TEST(CheckedFlags, U64ParserRejectsSignsAndJunk) {
  EXPECT_FALSE(parse_u64_flag("--seed", "-1", 0));
  EXPECT_FALSE(parse_u64_flag("--seed", "x", 0));
  EXPECT_FALSE(parse_u64_flag("--deadline-us", "0", 1));
  // 2^64 overflows and must be rejected, not wrapped.
  EXPECT_FALSE(parse_u64_flag("--seed", "18446744073709551616", 0));
  EXPECT_EQ(parse_u64_flag("--seed", "18446744073709551615", 0),
            UINT64_MAX);
}

TEST(CheckedFlags, DoubleParserRequiresFinitePositiveFullToken) {
  EXPECT_FALSE(parse_double_flag("--soak", "banana", 0.0));
  EXPECT_FALSE(parse_double_flag("--soak", "1.5x", 0.0));
  EXPECT_FALSE(parse_double_flag("--soak", "0", 0.0));
  EXPECT_FALSE(parse_double_flag("--soak", "-2", 0.0));
  EXPECT_FALSE(parse_double_flag("--soak", "inf", 0.0));
  EXPECT_FALSE(parse_double_flag("--soak", "nan", 0.0));
  EXPECT_EQ(parse_double_flag("--soak", "1.5", 0.0), 1.5);
}

// ------------------------------------------- deadline teardown ordering --

TEST(WatchdogStress, RepeatedConstructCancelDestruct) {
  // Shutdown-ordering stress for the multi-pool world: every iteration
  // builds a pool, forces a real deadline cancellation, and tears the pool
  // down right after its participants unwound.  ASan/UBSan in CI turns any
  // use-after-free or cancel-vs-parking race into a hard failure.
  // A delay fault makes the timeout deterministic: every participant
  // sleeps 50ms before its *first* shared op, the 0.2ms deadline passes
  // mid-sleep, and the first op reads the clock past it and unwinds (a
  // stall would land at a random op index the election may never reach).
  const auto plan = fault::FaultPlan::parse("delay:p=1,us=50000", nullptr);
  ASSERT_TRUE(plan.has_value());
  for (int i = 0; i < 20; ++i) {
    hw::HwTrialPool pool(2);
    hw::HwRunOptions options;
    options.deadline_ns = 200'000;  // 0.2ms deadline vs 50ms delays
    options.plan = &*plan;
    const hw::HwRunResult run = pool.run(algo::AlgorithmId::kTournament, 2,
                                         static_cast<std::uint64_t>(i), options);
    EXPECT_TRUE(run.timed_out);
    EXPECT_FALSE(run.completed);
    // Pool destructs here, immediately after the cancellation.
  }
}

TEST(WatchdogStress, StaleDeadlineDoesNotCancelTheNextElection) {
  // Regression for the stale-deadline race of the former deadline watchdog
  // thread: an armed election that *finishes* must not let its deadline
  // cancel the next armed election (nor may the next one lose its own,
  // longer deadline).  Each attempt now carries its deadline in its
  // participants' contexts.  Election A completes in microseconds with a
  // 100ms deadline; election B is delayed 250ms under a 2s deadline.  A's
  // deadline falls mid-B, so a stale deadline would wrongly cancel B.
  const auto plan = fault::FaultPlan::parse("delay:p=1,us=250000", nullptr);
  ASSERT_TRUE(plan.has_value());
  hw::HwTrialPool pool(2);
  hw::HwRunOptions fast;
  fast.deadline_ns = 100'000'000;  // 100ms; the election takes microseconds
  const hw::HwRunResult a =
      pool.run(algo::AlgorithmId::kNativeAtomic, 2, 1, fast);
  EXPECT_FALSE(a.timed_out);
  hw::HwRunOptions slow;
  slow.deadline_ns = 2'000'000'000;  // 2s: far beyond the 250ms stalls
  slow.plan = &*plan;
  const hw::HwRunResult b =
      pool.run(algo::AlgorithmId::kTournament, 2, 2, slow);
  EXPECT_FALSE(b.timed_out) << "stale deadline from the previous election "
                               "cancelled a healthy one";
  EXPECT_TRUE(b.completed);
}

TEST(RetryTaxonomy, PoolCampaignAndSoakShareOneRetryLoop) {
  // One forced-timeout setup through the three paths that report hw
  // retries.  Every participant sleeps 50ms before its first shared op, so
  // the 0.2ms deadline cancels every attempt (the WatchdogStress margin)
  // and each election spends both of its retries.
  const auto plan = fault::FaultPlan::parse("delay:p=1,us=50000", nullptr);
  ASSERT_TRUE(plan.has_value());
  constexpr int k = 2;
  constexpr std::uint64_t kDeadlineNs = 200'000;
  constexpr int kRetries = 2;
  const algo::AlgorithmId id = algo::AlgorithmId::kTournament;

  hw::HwTrialPool pool(k);
  hw::HwRunOptions options;
  options.deadline_ns = kDeadlineNs;
  options.max_retries = kRetries;
  options.plan = &*plan;
  const hw::HwRunResult run = pool.run(id, k, /*seed=*/5, options);
  EXPECT_TRUE(run.timed_out);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.retries, kRetries);
  EXPECT_EQ(run.faults.delays, static_cast<std::uint64_t>((kRetries + 1) * k));

  CampaignSpec spec;
  spec.name = "retry-taxonomy";
  spec.backends = {exec::Backend::kHw};
  spec.algorithms = {id};
  spec.adversaries = {algo::AdversaryId::kUniformRandom};
  spec.ks = {k};
  spec.trials = 2;
  ExecutorOptions executor;
  executor.fault_plan = *plan;
  executor.hw_deadline_ns = kDeadlineNs;
  executor.hw_max_retries = kRetries;
  const CampaignResult campaign = run_campaign(spec, executor);
  ASSERT_EQ(campaign.cells.size(), 1u);
  EXPECT_EQ(campaign.cells[0].agg.timed_out_runs, 2);
  EXPECT_EQ(campaign.cells[0].agg.retries_total, 4u);

  SoakSpec soak;
  soak.k = k;
  soak.duration_seconds = 0.2;
  soak.rate = 10.0;
  soak.deadline_ns = kDeadlineNs;
  soak.max_retries = kRetries;
  soak.faults = *plan;
  const SoakResult served = run_soak_one(soak, id, nullptr);
  EXPECT_EQ(served.completed, 0u);
  EXPECT_GT(served.timed_out, 0u);
  EXPECT_EQ(served.retried,
            static_cast<std::uint64_t>(kRetries) * served.timed_out);
}

}  // namespace
}  // namespace rts::campaign
