#include "campaign/soak.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "exec/backend.hpp"
#include "hw/harness.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace rts::campaign {

namespace {

using Clock = std::chrono::steady_clock;

std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

fault::FaultPlan parse_plan_or_die(const char* spec) {
  std::string error;
  auto plan = fault::FaultPlan::parse(spec, &error);
  RTS_REQUIRE(plan.has_value(), "preset fault plan must parse");
  return *plan;
}

}  // namespace

const std::vector<SoakPreset>& all_soak_presets() {
  static const std::vector<SoakPreset> kPresets = [] {
    std::vector<SoakPreset> presets;
    {
      SoakPreset preset;
      preset.name = "soak-smoke";
      preset.title = "2-second low-rate soak, 2 algorithms (CI smoke)";
      preset.spec.name = "soak-smoke";
      preset.spec.algorithms = {algo::AlgorithmId::kTournament,
                                algo::AlgorithmId::kNativeAtomic};
      preset.spec.k = 4;
      preset.spec.duration_seconds = 2.0;
      preset.spec.rate = 500.0;
      preset.spec.seed = 2026;
      presets.push_back(std::move(preset));
    }
    {
      SoakPreset preset;
      preset.name = "soak-contend";
      preset.title = "10-second contended soak of the hw headliners";
      preset.spec.name = "soak-contend";
      preset.spec.algorithms = {algo::AlgorithmId::kTournament,
                                algo::AlgorithmId::kRatRacePath,
                                algo::AlgorithmId::kCombinedSift,
                                algo::AlgorithmId::kNativeAtomic};
      preset.spec.k = 8;
      preset.spec.duration_seconds = 10.0;
      preset.spec.rate = 5000.0;
      preset.spec.seed = 2027;
      presets.push_back(std::move(preset));
    }
    {
      // Aggressive chaos smoke: the 3ms stalls dominate the 1.5ms deadline,
      // so most first attempts cancel; the arrival rate far outruns the
      // degraded service rate, so the shedding gate must engage.  CI asserts
      // the run *survives* with nonzero timed_out / retried / shed counts.
      SoakPreset preset;
      preset.name = "soak-chaos";
      preset.title =
          "2-second chaos soak: stalls past the deadline, no-shows, shedding";
      preset.spec.name = "soak-chaos";
      preset.spec.algorithms = {algo::AlgorithmId::kTournament};
      preset.spec.k = 4;
      preset.spec.duration_seconds = 2.0;
      preset.spec.rate = 4000.0;
      preset.spec.seed = 2028;
      preset.spec.deadline_ns = 1'500'000;  // 1.5ms
      preset.spec.max_retries = 2;
      preset.spec.shed_backlog = 32;
      preset.spec.faults = parse_plan_or_die(
          "stall:p=0.3,us=3000;noshow:p=0.15;delay:p=0.2,us=200");
      presets.push_back(std::move(preset));
    }
    return presets;
  }();
  return kPresets;
}

const SoakPreset* find_soak_preset(std::string_view name) {
  for (const SoakPreset& preset : all_soak_presets()) {
    if (preset.name == name) return &preset;
  }
  return nullptr;
}

ShardRouter::ShardRouter(std::size_t shards) : shards_(shards) {
  RTS_REQUIRE(shards >= 1, "router needs at least one shard");
}

std::size_t ShardRouter::pick(const std::vector<std::uint64_t>& backlogs) {
  RTS_REQUIRE(backlogs.size() == shards_, "one backlog per shard");
  std::uint64_t best = backlogs.front();
  for (const std::uint64_t backlog : backlogs) best = std::min(best, backlog);
  // First minimal shard at or after the cursor; the cursor then advances
  // past it, so equally loaded shards are dealt arrivals round-robin.
  for (std::size_t offset = 0; offset < shards_; ++offset) {
    const std::size_t shard = (next_ + offset) % shards_;
    if (backlogs[shard] == best) {
      next_ = (shard + 1) % shards_;
      return shard;
    }
  }
  RTS_ASSERT_MSG(false, "a minimal backlog always exists");
  return 0;
}

std::vector<int> shard_pin_slice(const std::vector<int>& pin_cpus, int shards,
                                 int shard) {
  RTS_REQUIRE(shards >= 1 && shard >= 0 && shard < shards,
              "shard index out of range");
  std::vector<int> slice;
  for (std::size_t i = static_cast<std::size_t>(shard); i < pin_cpus.size();
       i += static_cast<std::size_t>(shards)) {
    slice.push_back(pin_cpus[i]);
  }
  return slice;
}

void merge_shard_stats(const std::vector<ShardStats>& shards,
                       SoakResult* result) {
  result->shard_stats = shards;
  result->shards = static_cast<int>(shards.size());
  result->completed = 0;
  result->timed_out = 0;
  result->retried = 0;
  result->shed = 0;
  result->violations = 0;
  result->incomplete = 0;
  result->latency = telemetry::LatencyHistogram();
  result->faults = fault::FaultCounters();
  result->perf = telemetry::PerfCounts();
  for (const ShardStats& shard : shards) {
    result->completed += shard.completed;
    result->timed_out += shard.timed_out;
    result->retried += shard.retried;
    result->shed += shard.shed;
    result->violations += shard.violations;
    result->incomplete += shard.incomplete;
    result->latency.merge(shard.latency);
    result->faults.add(shard.faults);
    result->perf.add(shard.perf);
  }
}

namespace {

/// One arrival as dispatched to a shard: its schedule position (which
/// alone fixes its seed stream) and its scheduled arrival instant (which
/// latency is measured from).
struct Arrival {
  std::uint64_t index = 0;
  Clock::time_point scheduled{};
};

/// One service shard: a persistent HwTrialPool plus a server thread
/// draining this shard's arrival queue.  The dispatcher enqueues batches
/// and reads the backlog; all election work and stat recording happen on
/// the server thread, with the stats mutex held only around bookkeeping
/// (never across an election), so heartbeat snapshots stay cheap.
class SoakShard {
 public:
  SoakShard(const SoakSpec& spec, algo::AlgorithmId algorithm, int n,
            std::vector<int> pin_cpus)
      : spec_(spec), algorithm_(algorithm), n_(n) {
    hw::HwPoolOptions pool_options;
    pool_options.pin_cpus = std::move(pin_cpus);
    pool_ = std::make_unique<hw::HwTrialPool>(spec.k, pool_options);
    server_ = std::jthread([this] { serve(); });
  }

  ~SoakShard() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining_ = true;
      dropping_ = true;
    }
    cv_.notify_all();
    // server_ joins in its destructor, before pool_ (declared earlier)
    // dies -- the server never outlives the pool it drives.
  }

  SoakShard(const SoakShard&) = delete;
  SoakShard& operator=(const SoakShard&) = delete;

  /// Queued plus in-flight elections (the dispatcher's routing metric).
  std::uint64_t backlog() const {
    return backlog_.load(std::memory_order_relaxed);
  }

  /// Appends a dispatch batch and wakes the server once per batch.
  void enqueue(const std::vector<Arrival>& batch) {
    if (batch.empty()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.insert(queue_.end(), batch.begin(), batch.end());
      stats_.dispatched += batch.size();
      stats_.max_queue =
          std::max<std::uint64_t>(stats_.max_queue,
                                  backlog_.load(std::memory_order_relaxed) +
                                      batch.size());
    }
    backlog_.fetch_add(batch.size(), std::memory_order_relaxed);
    cv_.notify_one();
  }

  /// A shed charged to this shard (it was the least-backlog choice and
  /// still over the gate).
  void record_shed() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed;
  }

  /// No further arrivals: serve what is queued, then park the server.
  /// `drop_queue` abandons queued arrivals instead (interrupt path).
  void finish(bool drop_queue) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining_ = true;
      dropping_ = dropping_ || drop_queue;
    }
    cv_.notify_all();
    if (server_.joinable()) server_.join();
  }

  /// Stats snapshot for heartbeats (exact, but mid-flight).
  ShardStats snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Final stats; call after finish() so the server is parked and the
  /// pool's perf totals are quiescent.
  ShardStats collect() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.perf = pool_->perf_totals();
    return stats_;
  }

 private:
  void serve() {
    for (;;) {
      Arrival arrival;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
        if (dropping_ || (queue_.empty() && draining_)) {
          backlog_.fetch_sub(queue_.size(), std::memory_order_relaxed);
          queue_.clear();
          return;
        }
        arrival = queue_.front();
        queue_.pop_front();
      }
      serve_one(arrival);
      backlog_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Files one arrival into the outcome taxonomy (see soak.hpp); the pool
  /// runs the deadline/retry loop.  Latency runs from the *scheduled*
  /// arrival so queue wait and backoff stay charged (coordinated omission
  /// honest), and a timed-out arrival contributes a count, never a
  /// fabricated sample.
  void serve_one(const Arrival& arrival) {
    hw::HwRunOptions run_options;
    run_options.step_limit = spec_.step_limit;
    run_options.deadline_ns = spec_.deadline_ns;
    run_options.max_retries = spec_.max_retries;
    run_options.backoff = spec_.backoff;
    run_options.plan = &spec_.faults;
    const hw::HwRunResult run = pool_->run(
        algorithm_, n_, support::derive_seed(spec_.seed, arrival.index),
        run_options);
    const Clock::time_point end = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    stats_.retried += static_cast<std::uint64_t>(run.retries);
    stats_.violations += run.violations.size();
    stats_.faults.add(run.faults);
    if (run.timed_out) {
      ++stats_.timed_out;
    } else {
      ++stats_.completed;
      stats_.latency.record(static_cast<std::uint64_t>(
          std::llround(seconds_between(arrival.scheduled, end) * 1e9)));
      if (!run.completed) ++stats_.incomplete;  // step-limit watchdog
    }
  }

  const SoakSpec& spec_;
  const algo::AlgorithmId algorithm_;
  const int n_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Arrival> queue_;  // guarded by mu_
  bool draining_ = false;      // guarded by mu_: no further arrivals
  bool dropping_ = false;      // guarded by mu_: abandon the queue too
  ShardStats stats_;           // guarded by mu_
  std::atomic<std::uint64_t> backlog_{0};
  std::unique_ptr<hw::HwTrialPool> pool_;
  std::jthread server_;  ///< last member: joins before the state above dies
};

}  // namespace

SoakResult run_soak_one(const SoakSpec& spec, algo::AlgorithmId algorithm,
                        std::FILE* heartbeat) {
  RTS_REQUIRE(spec.rate > 0.0, "soak rate must be positive");
  RTS_REQUIRE(spec.duration_seconds > 0.0, "soak duration must be positive");
  RTS_REQUIRE(spec.max_retries >= 0, "soak retries must be non-negative");
  RTS_REQUIRE(spec.shards >= 1, "soak needs at least one shard");
  RTS_REQUIRE(algo::supports(algorithm, exec::Backend::kHw),
              "soak algorithm has no hardware backend");
  const int n = spec.n > 0 ? spec.n : spec.k;
  RTS_REQUIRE(spec.k >= 1 && spec.k <= n, "soak needs 1 <= k <= n");

  SoakResult result;
  result.algorithm = algorithm;
  result.k = spec.k;
  result.n = n;
  result.target_rate = spec.rate;
  result.duration_seconds = spec.duration_seconds;
  result.shards = spec.shards;
  const double period = 1.0 / spec.rate;
  result.planned = static_cast<std::uint64_t>(std::max(
      1.0, std::floor(spec.duration_seconds * spec.rate)));

  const std::size_t shard_count = static_cast<std::size_t>(spec.shards);
  std::vector<std::unique_ptr<SoakShard>> shards;
  shards.reserve(shard_count);
  for (int s = 0; s < spec.shards; ++s) {
    shards.push_back(std::make_unique<SoakShard>(
        spec, algorithm, n, shard_pin_slice(spec.pin_cpus, spec.shards, s)));
  }
  ShardRouter router(shard_count);
  std::vector<std::uint64_t> backlogs(shard_count, 0);
  std::vector<std::vector<Arrival>> batches(shard_count);

  const std::string tag = std::string("soak ") + algo::info(algorithm).name;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.duration_seconds));
  const auto heartbeat_interval =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          spec.heartbeat_seconds > 0.0 ? spec.heartbeat_seconds : 0.5));
  Clock::time_point next_heartbeat = start + heartbeat_interval;

  // Arrivals the dispatcher has dealt with (routed to a shard or shed);
  // also the arrival-seed stream index, so every arrival's coins are fixed
  // by its schedule position alone, never by the shard it lands on.
  std::uint64_t dispatched = 0;
  const auto scheduled_at = [&](std::uint64_t index) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(index) * period));
  };
  const auto due_at = [&](Clock::time_point now) -> std::uint64_t {
    const double elapsed = seconds_between(start, now);
    return std::min(
        result.planned,
        static_cast<std::uint64_t>(std::floor(elapsed / period)) + 1);
  };
  // Service arrears: everything routed to a shard and not yet served.
  const auto total_backlog = [&]() -> std::uint64_t {
    std::uint64_t total = 0;
    for (const auto& shard : shards) total += shard->backlog();
    return total;
  };
  const auto emit_heartbeat = [&](Clock::time_point now, bool final_line) {
    if (heartbeat == nullptr) return;
    const double elapsed = seconds_between(start, now);
    const std::uint64_t backlog = total_backlog();
    // Exact mid-flight snapshot: merge each shard's stats under its lock.
    SoakResult live;
    std::vector<ShardStats> stats;
    stats.reserve(shard_count);
    for (const auto& shard : shards) stats.push_back(shard->snapshot());
    merge_shard_stats(stats, &live);
    const std::uint64_t done = live.completed + live.timed_out + live.shed;
    std::string extra =
        final_line ? (result.interrupted ? "interrupted" : "done")
                   : "backlog " + std::to_string(backlog);
    if (!live.latency.empty()) {
      extra += "  p99 " + format_ns(live.latency.p99());
    }
    if (live.timed_out > 0) extra += "  t/o " + std::to_string(live.timed_out);
    if (live.shed > 0) extra += "  shed " + std::to_string(live.shed);
    // Honest degraded-mode flag (global heartbeat over per-shard gates):
    // some shard is currently over the shed threshold, so this line's
    // throughput is the degraded number, not the offered load.
    if (!final_line && spec.shed_backlog > 0) {
      for (const auto& shard : shards) {
        if (shard->backlog() > spec.shed_backlog) {
          extra += "  DEGRADED";
          break;
        }
      }
    }
    std::fprintf(heartbeat, "%s\n",
                 heartbeat_line(tag, elapsed, done, result.planned,
                                "elections", extra)
                     .c_str());
    std::fflush(heartbeat);
  };
  const auto maybe_heartbeat = [&](Clock::time_point now) {
    if (heartbeat == nullptr || now < next_heartbeat) return;
    emit_heartbeat(now, /*final_line=*/false);
    while (next_heartbeat <= now) next_heartbeat += heartbeat_interval;
  };

  while (dispatched < result.planned) {
    if (spec.cancel != nullptr &&
        spec.cancel->load(std::memory_order_relaxed)) {
      result.interrupted = true;
      break;
    }
    const Clock::time_point scheduled = scheduled_at(dispatched);
    Clock::time_point now = Clock::now();
    // Open-loop arrival: wait for the next scheduled request, waking for
    // heartbeats, but never past the soak deadline.
    while (now < scheduled && now < deadline) {
      Clock::time_point wake = std::min(scheduled, deadline);
      if (heartbeat != nullptr) wake = std::min(wake, next_heartbeat);
      std::this_thread::sleep_until(wake);
      now = Clock::now();
      maybe_heartbeat(now);
    }
    if (now >= deadline) break;
    maybe_heartbeat(now);

    // Dispatch pass: batch every arrival due by now (at least the one we
    // slept for), routing each to the least-backlog shard, then publish
    // each shard's batch with a single wakeup.
    const std::uint64_t due = due_at(now);
    for (auto& batch : batches) batch.clear();
    while (dispatched < due) {
      for (std::size_t s = 0; s < shard_count; ++s) {
        backlogs[s] = shards[s]->backlog() + batches[s].size();
      }
      const std::size_t shard = router.pick(backlogs);
      if (spec.shed_backlog > 0 && backlogs[shard] > spec.shed_backlog) {
        // Graceful degradation, per shard: even the least loaded shard is
        // over the gate, so the arrival is shed (counted, never served)
        // instead of queueing unboundedly.
        shards[shard]->record_shed();
        result.degraded = true;
      } else {
        batches[shard].push_back(Arrival{dispatched, scheduled_at(dispatched)});
      }
      ++dispatched;
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards[s]->enqueue(batches[s]);
    }
    result.max_backlog = std::max(result.max_backlog, total_backlog());
  }

  // Drain: already-routed arrivals are served (their queue wait keeps
  // accruing into their latency); an interrupt abandons the queues
  // instead.  Arrivals never dispatched are the served vs planned gap.
  for (const auto& shard : shards) shard->finish(result.interrupted);
  result.wall_seconds = seconds_between(start, Clock::now());
  std::vector<ShardStats> stats;
  stats.reserve(shard_count);
  for (const auto& shard : shards) stats.push_back(shard->collect());
  merge_shard_stats(stats, &result);
  emit_heartbeat(Clock::now(), /*final_line=*/true);
  return result;
}

std::vector<SoakResult> run_soak(const SoakSpec& spec, std::FILE* heartbeat) {
  RTS_REQUIRE(!spec.algorithms.empty(), "soak needs at least one algorithm");
  std::vector<SoakResult> results;
  results.reserve(spec.algorithms.size());
  for (const algo::AlgorithmId algorithm : spec.algorithms) {
    results.push_back(run_soak_one(spec, algorithm, heartbeat));
    if (results.back().interrupted) break;  // partial results, honestly marked
  }
  return results;
}

namespace {

/// The empty-latency contract, table form: a run where nothing completed
/// has no latency distribution, so percentile cells render "-" (absence),
/// never format_ns(0) (a fabricated zero sample).
std::string latency_cell(const telemetry::LatencyHistogram& latency,
                         std::uint64_t value) {
  return latency.empty() ? "-" : format_ns(value);
}

}  // namespace

void report_soak_table(const SoakSpec& spec,
                       const std::vector<SoakResult>& results,
                       std::FILE* out) {
  std::string title = spec.name + ": open-loop soak, hw backend, target " +
                      fmt_double(spec.rate) + "/s for " +
                      fmt_double(spec.duration_seconds) + "s, " +
                      std::to_string(spec.shards) +
                      (spec.shards == 1 ? " shard" : " shards");
  support::Table table(title,
                       {"algorithm", "k", "served", "planned", "t/o", "shed",
                        "retried", "throughput/s", "max backlog", "p50", "p90",
                        "p99", "p999", "max", "viol", "incomplete"});
  for (const SoakResult& result : results) {
    const double throughput =
        result.wall_seconds > 0.0
            ? static_cast<double>(result.completed) / result.wall_seconds
            : 0.0;
    table.add_row(
        {algo::info(result.algorithm).name,
         support::Table::num(static_cast<std::size_t>(result.k)),
         support::Table::num(static_cast<std::size_t>(result.completed)),
         support::Table::num(static_cast<std::size_t>(result.planned)),
         support::Table::num(static_cast<std::size_t>(result.timed_out)),
         support::Table::num(static_cast<std::size_t>(result.shed)),
         support::Table::num(static_cast<std::size_t>(result.retried)),
         support::Table::num(throughput, 0),
         support::Table::num(static_cast<std::size_t>(result.max_backlog)),
         latency_cell(result.latency, result.latency.p50()),
         latency_cell(result.latency, result.latency.p90()),
         latency_cell(result.latency, result.latency.p99()),
         latency_cell(result.latency, result.latency.p999()),
         latency_cell(result.latency, result.latency.max()),
         support::Table::num(static_cast<std::size_t>(result.violations)),
         support::Table::num(static_cast<std::size_t>(result.incomplete))});
  }
  table.print(out);
  for (const SoakResult& result : results) {
    if (result.shards > 1) {
      for (std::size_t s = 0; s < result.shard_stats.size(); ++s) {
        const ShardStats& shard = result.shard_stats[s];
        std::fprintf(out,
                     "shard[%s/%zu]: dispatched %llu  served %llu  t/o %llu  "
                     "shed %llu  retried %llu  max queue %llu  p99 %s\n",
                     algo::info(result.algorithm).name, s,
                     static_cast<unsigned long long>(shard.dispatched),
                     static_cast<unsigned long long>(shard.completed),
                     static_cast<unsigned long long>(shard.timed_out),
                     static_cast<unsigned long long>(shard.shed),
                     static_cast<unsigned long long>(shard.retried),
                     static_cast<unsigned long long>(shard.max_queue),
                     latency_cell(shard.latency, shard.latency.p99()).c_str());
      }
    }
    if (result.degraded || result.interrupted || result.faults.any()) {
      std::fprintf(out, "chaos[%s]:%s%s", algo::info(result.algorithm).name,
                   result.degraded ? " DEGRADED (backlog shed engaged)" : "",
                   result.interrupted ? " INTERRUPTED (partial run)" : "");
      if (result.faults.any()) {
        std::fprintf(out, " faults stalls=%llu no_shows=%llu delays=%llu",
                     static_cast<unsigned long long>(result.faults.stalls),
                     static_cast<unsigned long long>(result.faults.no_shows),
                     static_cast<unsigned long long>(result.faults.delays));
      }
      std::fputc('\n', out);
    }
    std::fprintf(out, "perf[%s]: ", algo::info(result.algorithm).name);
    if (!result.perf.any() || result.completed == 0) {
      std::fputs("counters unavailable\n", out);
      continue;
    }
    const double elections = static_cast<double>(result.completed);
    bool first = true;
    for (std::size_t i = 0; i < telemetry::PerfCounts::kCounters; ++i) {
      if (!result.perf.valid[i]) continue;
      std::fprintf(out, "%s%s/election %.0f", first ? "" : "  ",
                   telemetry::PerfCounts::name(i),
                   static_cast<double>(result.perf.value[i]) / elections);
      first = false;
    }
    std::fputc('\n', out);
  }
}

namespace {

/// The latency block, shared by the merged cell and the per-shard blocks.
/// Absent (nothing printed) for the empty histogram: a run where every
/// election was shed or timed out has no latency distribution, and zero
/// percentiles would fabricate one -- the same unavailable-not-zero
/// contract the perf block follows.
void print_latency_block(std::FILE* out,
                         const telemetry::LatencyHistogram& latency) {
  if (latency.empty()) return;
  std::fprintf(
      out,
      ",\"latency\":{\"unit\":\"ns\",\"count\":%llu,\"p50\":%llu,"
      "\"p90\":%llu,\"p99\":%llu,\"p999\":%llu,\"max\":%llu}",
      static_cast<unsigned long long>(latency.count()),
      static_cast<unsigned long long>(latency.p50()),
      static_cast<unsigned long long>(latency.p90()),
      static_cast<unsigned long long>(latency.p99()),
      static_cast<unsigned long long>(latency.p999()),
      static_cast<unsigned long long>(latency.max()));
}

void print_perf_block(std::FILE* out, const telemetry::PerfCounts& perf) {
  if (!perf.any()) return;
  std::fprintf(out, ",\"perf\":{\"samples\":%llu",
               static_cast<unsigned long long>(perf.samples));
  for (std::size_t i = 0; i < telemetry::PerfCounts::kCounters; ++i) {
    if (!perf.valid[i]) continue;
    std::fprintf(out, ",\"%s\":%llu", telemetry::PerfCounts::name(i),
                 static_cast<unsigned long long>(perf.value[i]));
  }
  std::fputc('}', out);
}

}  // namespace

void report_soak_jsonl(const SoakSpec& spec,
                       const std::vector<SoakResult>& results,
                       std::FILE* out) {
  std::fprintf(out,
               "{\"type\":\"soak\",\"schema\":\"rts-soak-3\",\"name\":\"%s\","
               "\"k\":%d,\"rate\":%s,\"duration_seconds\":%s,\"seed\":%llu,"
               "\"shards\":%d,\"algorithms\":%zu",
               spec.name.c_str(), spec.k, fmt_double(spec.rate).c_str(),
               fmt_double(spec.duration_seconds).c_str(),
               static_cast<unsigned long long>(spec.seed), spec.shards,
               results.size());
  if (spec.deadline_ns > 0) {
    std::fprintf(out, ",\"deadline_ns\":%llu,\"max_retries\":%d",
                 static_cast<unsigned long long>(spec.deadline_ns),
                 spec.max_retries);
  }
  if (spec.shed_backlog > 0) {
    std::fprintf(out, ",\"shed_backlog\":%llu",
                 static_cast<unsigned long long>(spec.shed_backlog));
  }
  if (spec.faults.active()) {
    std::fprintf(out, ",\"faults_plan\":\"%s\"", spec.faults.spec.c_str());
  }
  std::fputs("}\n", out);
  for (const SoakResult& result : results) {
    const double throughput =
        result.wall_seconds > 0.0
            ? static_cast<double>(result.completed) / result.wall_seconds
            : 0.0;
    std::fprintf(
        out,
        "{\"type\":\"soak-cell\",\"algorithm\":\"%s\",\"k\":%d,\"n\":%d,"
        "\"shards\":%d,\"target_rate\":%s,\"wall_seconds\":%s,"
        "\"planned\":%llu,\"completed\":%llu,\"throughput\":%s,"
        "\"violations\":%llu,\"incomplete\":%llu,\"max_backlog\":%llu,"
        "\"outcomes\":{\"completed\":%llu,\"timed_out\":%llu,"
        "\"retried\":%llu,\"shed\":%llu},\"degraded\":%s",
        algo::info(result.algorithm).name, result.k, result.n, result.shards,
        fmt_double(result.target_rate).c_str(),
        fmt_double(result.wall_seconds).c_str(),
        static_cast<unsigned long long>(result.planned),
        static_cast<unsigned long long>(result.completed),
        fmt_double(throughput).c_str(),
        static_cast<unsigned long long>(result.violations),
        static_cast<unsigned long long>(result.incomplete),
        static_cast<unsigned long long>(result.max_backlog),
        static_cast<unsigned long long>(result.completed),
        static_cast<unsigned long long>(result.timed_out),
        static_cast<unsigned long long>(result.retried),
        static_cast<unsigned long long>(result.shed),
        result.degraded ? "true" : "false");
    if (result.interrupted) std::fputs(",\"interrupted\":true", out);
    if (spec.faults.active()) {
      std::fprintf(out,
                   ",\"faults\":{\"stalls\":%llu,\"no_shows\":%llu,"
                   "\"delays\":%llu}",
                   static_cast<unsigned long long>(result.faults.stalls),
                   static_cast<unsigned long long>(result.faults.no_shows),
                   static_cast<unsigned long long>(result.faults.delays));
    }
    print_latency_block(out, result.latency);
    print_perf_block(out, result.perf);
    std::fputs(",\"shard_stats\":[", out);
    for (std::size_t s = 0; s < result.shard_stats.size(); ++s) {
      const ShardStats& shard = result.shard_stats[s];
      std::fprintf(out,
                   "%s{\"shard\":%zu,\"dispatched\":%llu,"
                   "\"outcomes\":{\"completed\":%llu,\"timed_out\":%llu,"
                   "\"retried\":%llu,\"shed\":%llu},\"violations\":%llu,"
                   "\"incomplete\":%llu,\"max_queue\":%llu",
                   s == 0 ? "" : ",", s,
                   static_cast<unsigned long long>(shard.dispatched),
                   static_cast<unsigned long long>(shard.completed),
                   static_cast<unsigned long long>(shard.timed_out),
                   static_cast<unsigned long long>(shard.retried),
                   static_cast<unsigned long long>(shard.shed),
                   static_cast<unsigned long long>(shard.violations),
                   static_cast<unsigned long long>(shard.incomplete),
                   static_cast<unsigned long long>(shard.max_queue));
      print_latency_block(out, shard.latency);
      print_perf_block(out, shard.perf);
      std::fputc('}', out);
    }
    std::fputs("]}\n", out);
  }
}

}  // namespace rts::campaign
