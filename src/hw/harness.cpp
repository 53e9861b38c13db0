#include "hw/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "algo/make_le.hpp"
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

/// The hardware baseline behind algo::AlgorithmId::kNativeAtomic: one
/// atomic exchange is a hardware TAS.  The bit is not a register-pool
/// register, so the run reports 0 registers materialized.
class NativeAtomicLe final : public algo::ILeaderElect<HwPlatform> {
 public:
  sim::Outcome elect(HwPlatform::Context& ctx) override {
    const sim::Outcome outcome =
        bit_.exchange(1, std::memory_order_seq_cst) == 0 ? sim::Outcome::kWin
                                                         : sim::Outcome::kLose;
    ctx.on_op();
    return outcome;
  }

  std::size_t declared_registers() const override { return 1; }

 private:
  alignas(64) std::atomic<std::uint64_t> bit_{0};
};

}  // namespace

std::unique_ptr<algo::ILeaderElect<HwPlatform>> make_hw_le(
    algo::AlgorithmId id, HwPlatform::Arena arena, int n) {
  RTS_REQUIRE(algo::supports(id, exec::Backend::kHw),
              "algorithm has no hardware backend");
  if (id == algo::AlgorithmId::kDivergeHw) {
    return std::make_unique<DivergeHwLe>(arena);
  }
  if (id == algo::AlgorithmId::kNativeAtomic) {
    return std::make_unique<NativeAtomicLe>();
  }
  return algo::make_le<HwPlatform>(id, arena, n);
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

/// what() of a participant's failure, for the rts::Error run() throws.
std::string describe(const std::exception_ptr& failure) {
  try {
    std::rethrow_exception(failure);
  } catch (const std::exception& error) {
    return error.what();
  } catch (...) {
    return "an exception not derived from std::exception";
  }
}

}  // namespace

HwTrialPool::HwTrialPool(int k, HwPoolOptions pool_options)
    : k_(k), pool_options_(std::move(pool_options)) {
  RTS_REQUIRE(k >= 1, "need at least one participant thread");
  perf_slots_.resize(static_cast<std::size_t>(k));
  threads_.reserve(static_cast<std::size_t>(k));
  try {
    for (int pid = 0; pid < k; ++pid) {
      threads_.emplace_back([this, pid] { participant(pid); });
    }
  } catch (...) {
    // Partial spawn (thread-resource exhaustion): between jobs the running
    // participants park only on job_, so the stop bump ends them.
    shutdown();
    throw;
  }
}

HwTrialPool::~HwTrialPool() { shutdown(); }

void HwTrialPool::shutdown() {
  stop_.store(true, std::memory_order_relaxed);
  job_.fetch_add(1, std::memory_order_release);
  job_.notify_all();
  threads_.clear();  // join
}

void HwTrialPool::participant(int pid) {
  const auto slot = static_cast<std::size_t>(pid);
  if (!pool_options_.pin_cpus.empty()) {
    pin_current_thread(
        pool_options_.pin_cpus[slot % pool_options_.pin_cpus.size()]);
  }
  // The counter group is opened by (and bound to) this thread, so campaign
  // workers running sim cells never leak cycles into hw measurements.  It
  // lives in place: outside its elections the thread allocates nothing, so
  // nothing can throw out of this entry function.
  std::optional<telemetry::PerfCounterGroup> perf(std::in_place);
  if (!perf->available()) {
    perf.reset();
    perf_missing_.fetch_add(1, std::memory_order_relaxed);
  }

  const auto k = static_cast<std::uint32_t>(k_);
  std::uint32_t seen = 0;  // job_ as the constructor left it
  for (;;) {
    job_.wait(seen, std::memory_order_acquire);  // run() or shutdown bumps it
    if (stop_.load(std::memory_order_relaxed)) return;
    seen = job_.load(std::memory_order_relaxed);
    // Start line: the last arrival stamps the election's start and releases
    // the others.  The phase is read before arriving, so a release that
    // lands before this thread waits is never missed.
    const std::uint32_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == k) {
      arrived_.store(0, std::memory_order_relaxed);
      start_ = std::chrono::steady_clock::now();
      phase_.store(phase + 1, std::memory_order_release);
      phase_.notify_all();
    } else {
      phase_.wait(phase, std::memory_order_acquire);
    }
    if (perf) perf->start();
    // This participant's chaos-plan faults: a no-show skips the election
    // (ops stay 0).
    const fault::ParticipantFault* fault =
        faults_ != nullptr ? &faults_->participants[slot] : nullptr;
    if (fault == nullptr || !fault->no_show) {
      try {
        elect_once(pid, fault);
      } catch (...) {
        // Anything else escaping the election (a bad_alloc from a lazy node
        // map, say) still counts this participant out below; the first
        // failure is kept for run() to report.
        int none = -1;
        if (failed_pid_.compare_exchange_strong(none, pid,
                                                std::memory_order_relaxed)) {
          failure_ = std::current_exception();
        }
      }
    }
    if (perf) perf_slots_[slot].add(perf->stop());
    // Count out; the acq_rel chain hands every participant's slot writes to
    // the last one out, whose release of done_ hands them to run().
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      end_ = std::chrono::steady_clock::now();
      done_.fetch_add(1, std::memory_order_release);
      done_.notify_one();  // run() is the only waiter
    }
  }
}

void HwTrialPool::elect_once(int pid, const fault::ParticipantFault* fault) {
  const auto slot = static_cast<std::size_t>(pid);
  support::PrngSource rng(
      support::derive_seed(seed_, static_cast<std::uint64_t>(pid)));
  HwPlatform::Context ctx(pid, rng);
  ctx.set_step_limit(step_limit_);
  if (deadline_) ctx.set_deadline(*deadline_);
  // A delay sleeps before the first shared op, a stall arms the context's
  // one-shot mid-election sleep.
  if (fault != nullptr && fault->stall_us > 0) {
    ctx.set_stall(fault->stall_after_op, fault->stall_us);
  }
  if (fault != nullptr && fault->delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(fault->delay_us));
  }
  try {
    result_->outcomes[slot] = le_->elect(ctx);
  } catch (const StepLimitReached&) {
    aborted_.fetch_add(1, std::memory_order_relaxed);  // outcome kUnknown
  } catch (const ElectionCancelled&) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);  // outcome kUnknown
  }
  result_->ops[slot] = ctx.ops();
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
    result.declared_registers = le->declared_registers();
    le_ = le.get();
    seed_ = attempt_seed;
    faults_ = chaos ? &faults : nullptr;
    aborted_.store(0, std::memory_order_relaxed);
    cancelled_.store(0, std::memory_order_relaxed);
    failed_pid_.store(-1, std::memory_order_relaxed);
    remaining_.store(static_cast<std::uint32_t>(k_), std::memory_order_relaxed);
    const std::uint32_t done = done_.load(std::memory_order_relaxed);
    deadline_.reset();
    if (options.deadline_ns > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(options.deadline_ns);
    }
    job_.fetch_add(1, std::memory_order_release);  // publishes the job state
    job_.notify_all();
    done_.wait(done, std::memory_order_acquire);  // the last one out bumps it
    ++trials_run_;
    const int failed_pid = failed_pid_.load(std::memory_order_relaxed);
    if (failed_pid >= 0) {
      throw Error("hw participant " + std::to_string(failed_pid) +
                  " threw: " + describe(std::exchange(failure_, nullptr)));
    }

    // An aborted or cancelled attempt legitimately has no winner; only a
    // complete one without exactly one is a violation, mirroring the sim
    // harness's liveness rule.  Two winners violate unconditionally.
    result.wall_seconds =
        std::chrono::duration<double>(end_ - start_).count();
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
