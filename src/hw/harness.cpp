#include "hw/harness.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "algo/aa.hpp"
#include "algo/cascade.hpp"
#include "algo/chain.hpp"
#include "algo/combined.hpp"
#include "algo/ratrace.hpp"
#include "algo/tournament.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace rts::hw {

namespace {

/// Diagnostic algorithm behind algo::AlgorithmId::kDivergeHw: spins shared
/// reads forever and never elects.  Exists so tests and campaigns can prove
/// the step-limit watchdog terminates a diverging hw cell cleanly; the
/// catalogue marks it diagnostic and preset enumerations skip it.
class DivergeHwLe final : public algo::ILeaderElect<HwPlatform> {
 public:
  explicit DivergeHwLe(HwPlatform::Arena arena)
      : reg_(arena.reg("diverge.spin")) {}

  sim::Outcome elect(HwPlatform::Context& ctx) override {
    for (;;) reg_.read(ctx);  // unbounded; only the watchdog ends this
  }

  std::size_t declared_registers() const override { return 1; }

 private:
  HwPlatform::Reg reg_;
};

}  // namespace

std::unique_ptr<algo::ILeaderElect<HwPlatform>> make_hw_le(
    algo::AlgorithmId id, HwPlatform::Arena arena, int n) {
  using P = HwPlatform;
  RTS_REQUIRE(algo::supports(id, exec::Backend::kHw),
              "algorithm has no hardware backend");
  switch (id) {
    case algo::AlgorithmId::kLogStarChain:
      return std::make_unique<algo::GeChainLe<P>>(
          arena, n,
          algo::fig1_truncated_factory<P>(n, algo::default_live_prefix(n)));
    case algo::AlgorithmId::kSiftChain:
      return std::make_unique<algo::GeChainLe<P>>(
          arena, n, algo::sift_truncated_factory<P>(n));
    case algo::AlgorithmId::kSiftCascade:
      return std::make_unique<algo::SiftCascadeLe<P>>(arena, n);
    case algo::AlgorithmId::kRatRace:
      return std::make_unique<algo::RatRaceOriginal<P>>(arena, n);
    case algo::AlgorithmId::kRatRacePath:
      return std::make_unique<algo::RatRacePath<P>>(arena, n);
    case algo::AlgorithmId::kCombinedLogStar:
      return std::make_unique<algo::CombinedLe<P>>(
          arena, n,
          std::make_unique<algo::GeChainLe<P>>(
              arena, n,
              algo::fig1_truncated_factory<P>(n,
                                              algo::default_live_prefix(n))));
    case algo::AlgorithmId::kCombinedSift:
      return std::make_unique<algo::CombinedLe<P>>(
          arena, n, std::make_unique<algo::SiftCascadeLe<P>>(arena, n));
    case algo::AlgorithmId::kTournament:
      return std::make_unique<algo::TournamentLe<P>>(arena, n);
    case algo::AlgorithmId::kAaSiftRatRace:
      return std::make_unique<algo::AaSiftRatRaceLe<P>>(arena, n);
    case algo::AlgorithmId::kDivergeHw:
      return std::make_unique<DivergeHwLe>(arena);
    case algo::AlgorithmId::kNativeAtomic:
      return nullptr;
    case algo::AlgorithmId::kAbortableRace:
      break;  // sim-only: the supports() check above rejects it
  }
  RTS_ASSERT_MSG(false, "unknown hardware algorithm id");
  return nullptr;
}

exec::TrialSummary summarize_trial(const HwRunResult& result) {
  exec::TrialSummary trial;
  trial.backend = exec::Backend::kHw;
  trial.k = result.k;
  for (const std::uint64_t ops : result.ops) {
    trial.max_steps = std::max(trial.max_steps, ops);
    trial.total_steps += ops;
  }
  // On hardware the lazily materialized pool is exactly the set of registers
  // the trial touched.
  trial.regs_touched = result.registers;
  trial.declared_registers = result.declared_registers;
  for (const sim::Outcome outcome : result.outcomes) {
    if (outcome == sim::Outcome::kUnknown) ++trial.unfinished;
  }
  trial.completed = result.completed;
  trial.timed_out = result.timed_out;
  trial.retries = result.retries;
  trial.wall_seconds = result.wall_seconds;
  trial.latency = static_cast<std::uint64_t>(
      std::llround(result.wall_seconds * 1e9));  // wall-clock nanoseconds
  if (!result.violations.empty()) {
    trial.first_violation = result.violations.front();
  }
  return trial;
}

namespace {

/// Best-effort affinity pin for the calling thread; silently keeps the
/// thread unpinned where the platform (or the cpuset) refuses.
void pin_current_thread(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace

HwTrialPool::HwTrialPool(int k, HwPoolOptions pool_options)
    : k_(k), gate_(k + 1), pool_options_(std::move(pool_options)) {
  RTS_REQUIRE(k >= 1, "need at least one participant thread");
  perf_slots_.resize(static_cast<std::size_t>(k));
  threads_.reserve(static_cast<std::size_t>(k));
  try {
    for (int pid = 0; pid < k; ++pid) {
      threads_.emplace_back([this, pid] { participant(pid); });
    }
    watchdog_ = std::jthread([this] { watchdog_main(); });
  } catch (...) {
    // Partial spawn (thread-resource exhaustion): the already-running
    // participants are parked on the condition variable -- never on the
    // barrier, whose k+1 parties don't all exist -- so shutdown works.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    watchdog_cv_.notify_all();
    threads_.clear();  // join
    throw;
  }
}

HwTrialPool::~HwTrialPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  job_cv_.notify_all();
  watchdog_cv_.notify_all();
  threads_.clear();  // join; watchdog_ joins in its own destructor
}

void HwTrialPool::watchdog_main() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    watchdog_cv_.wait(lock,
                      [&] { return stop_ || (watchdog_armed_ &&
                                             job_seq_ != seen); });
    if (stop_) return;
    seen = job_seq_;
    // The predicate watches job_seq_ as well as job_done_: the captured
    // wait_until deadline belongs to job `seen`, and in the multi-pool /
    // back-to-back-run world the job can finish and run() can publish the
    // *next* one before this thread ever wakes (job_done_ flips true and
    // back to false while we sleep).  Without the seq guard that stale
    // deadline would fire and cancel the new job at the old job's --
    // possibly much earlier -- deadline; with it, a timeout return can
    // only mean job `seen` itself is still running past its own deadline.
    if (!watchdog_cv_.wait_until(lock, watchdog_deadline_, [&] {
          return stop_ || job_done_ || job_seq_ != seen;
        })) {
      // Deadline passed with this job still running: cancel.  Participants
      // observe the flag at their next shared op and unwind; run() still
      // waits on the completion barrier, so no state is torn down early.
      cancel_.store(true, std::memory_order_relaxed);
    }
    if (stop_) return;
  }
}

void HwTrialPool::participant(int pid) {
  const auto slot = static_cast<std::size_t>(pid);
  if (!pool_options_.pin_cpus.empty()) {
    pin_current_thread(
        pool_options_.pin_cpus[slot % pool_options_.pin_cpus.size()]);
  }
  // The counter group is opened by (and bound to) this thread, so campaign
  // workers running sim cells never leak cycles into hw measurements.
  std::unique_ptr<telemetry::PerfCounterGroup> perf;
  if (pool_options_.perf_counters) {
    perf = std::make_unique<telemetry::PerfCounterGroup>();
    if (!perf->available()) {
      perf.reset();
      perf_missing_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    perf_missing_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t seen = 0;
  for (;;) {
    {
      // Park until run() publishes a job or the pool shuts down.
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [&] { return stop_ || job_seq_ != seen; });
      if (stop_) return;
      seen = job_seq_;
    }
    gate_.arrive_and_wait();  // start line: the trial timer begins here
    if (perf) perf->start();
    // This participant's chaos-plan faults: a no-show skips the election
    // (ops stay 0), a delay sleeps before the first shared op, a stall arms
    // the context's one-shot mid-election sleep.
    const fault::ParticipantFault* fault =
        faults_ != nullptr ? &faults_->participants[slot] : nullptr;
    if (fault == nullptr || !fault->no_show) {
      support::PrngSource rng(
          support::derive_seed(seed_, static_cast<std::uint64_t>(pid)));
      HwPlatform::Context ctx(pid, rng);
      ctx.set_step_limit(step_limit_);
      if (deadline_armed_) ctx.set_cancel_flag(&cancel_);
      if (fault != nullptr && fault->stall_us > 0) {
        ctx.set_stall(fault->stall_after_op, fault->stall_us);
      }
      if (fault != nullptr && fault->delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(fault->delay_us));
      }
      try {
        if (le_ != nullptr) {
          result_->outcomes[slot] = le_->elect(ctx);
        } else {
          // Native baseline: atomic exchange is a hardware TAS.
          result_->outcomes[slot] =
              native_bit_.exchange(1, std::memory_order_seq_cst) == 0
                  ? sim::Outcome::kWin
                  : sim::Outcome::kLose;
          ctx.on_op();
        }
      } catch (const StepLimitReached&) {
        aborted_.fetch_add(1, std::memory_order_relaxed);  // outcome kUnknown
      } catch (const ElectionCancelled&) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);  // outcome kUnknown
      }
      result_->ops[slot] = ctx.ops();
    }
    if (perf) perf_slots_[slot].add(perf->stop());
    gate_.arrive_and_wait();  // completion; orders our writes before run()
  }
}

telemetry::PerfCounts HwTrialPool::perf_totals() const {
  telemetry::PerfCounts totals;
  if (perf_missing_.load(std::memory_order_relaxed) > 0) {
    return totals;  // any uninstrumented participant => no honest total
  }
  for (const telemetry::PerfCounts& slot : perf_slots_) {
    totals.add(slot);
  }
  return totals;
}

HwRunResult HwTrialPool::run(algo::AlgorithmId id, int n, std::uint64_t seed,
                             HwRunOptions options) {
  RTS_REQUIRE(k_ <= n, "need k <= n threads");
  RTS_REQUIRE(options.max_retries >= 0, "retry count must be non-negative");
  const bool chaos = options.plan != nullptr && options.plan->active();
  HwRunResult result;
  result.n = n;
  result.k = k_;
  step_limit_ = options.step_limit;
  deadline_armed_ = options.deadline_ns > 0;
  result_ = &result;
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t attempt_seed =
        attempt == 0
            ? seed
            : support::derive_seed(
                  seed, kRetrySalt + static_cast<std::uint64_t>(attempt));
    fault::TrialFaults faults;
    if (chaos) faults = options.plan->for_trial(attempt_seed, k_);
    result.faults.add(faults);
    result.outcomes.assign(static_cast<std::size_t>(k_),
                           sim::Outcome::kUnknown);
    result.ops.assign(static_cast<std::size_t>(k_), 0);

    RegisterPool pool;
    HwPlatform::Arena arena(pool);
    std::unique_ptr<algo::ILeaderElect<HwPlatform>> le =
        make_hw_le(id, arena, n);
    result.declared_registers = le != nullptr ? le->declared_registers() : 1;
    le_ = le.get();
    native_bit_.store(0, std::memory_order_relaxed);
    seed_ = attempt_seed;
    faults_ = chaos ? &faults : nullptr;
    aborted_.store(0, std::memory_order_relaxed);
    cancelled_.store(0, std::memory_order_relaxed);
    cancel_.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_done_ = false;
      watchdog_armed_ = deadline_armed_;
      if (deadline_armed_) {
        watchdog_deadline_ = std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(options.deadline_ns);
      }
      ++job_seq_;  // publishes the job state written above
    }
    job_cv_.notify_all();
    if (deadline_armed_) watchdog_cv_.notify_all();
    gate_.arrive_and_wait();  // start line with the woken participants
    const auto start = std::chrono::steady_clock::now();
    gate_.arrive_and_wait();  // wait for completion
    const auto end = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_done_ = true;  // disarms the watchdog for this job
    }
    watchdog_cv_.notify_all();
    ++trials_run_;

    // An aborted or cancelled attempt legitimately has no winner; only a
    // complete one without exactly one is a violation, mirroring the sim
    // harness's liveness rule.  Two winners violate unconditionally.
    result.wall_seconds = std::chrono::duration<double>(end - start).count();
    result.registers = pool.allocated();
    result.timed_out = cancelled_.load(std::memory_order_relaxed) > 0;
    result.completed =
        aborted_.load(std::memory_order_relaxed) == 0 && !result.timed_out;
    result.winners = static_cast<int>(std::count(
        result.outcomes.begin(), result.outcomes.end(), sim::Outcome::kWin));
    if (result.winners > 1 || (result.completed && result.winners != 1)) {
      result.violations.push_back(
          "hardware run must elect exactly one winner, got " +
          std::to_string(result.winners));
    }
    if (!result.timed_out || attempt >= options.max_retries) break;
    ++result.retries;
    std::this_thread::sleep_for(
        std::chrono::microseconds(options.backoff.delay_us(attempt + 1, seed)));
  }
  return result;
}

HwRunResult HwTrialPool::run_trial(algo::AlgorithmId id, int n, int trial,
                                   std::uint64_t seed0, HwRunOptions options) {
  return run(id, n, sim::trial_seed(seed0, trial), options);
}

exec::Aggregate run_hw_many(algo::AlgorithmId id, int k, int trials,
                            std::uint64_t seed0, HwRunOptions options) {
  HwTrialPool pool(k);
  exec::Aggregate agg;
  for (int t = 0; t < trials; ++t) {
    exec::accumulate_trial(
        agg, summarize_trial(pool.run_trial(id, k, t, seed0, options)));
  }
  return agg;
}

}  // namespace rts::hw
