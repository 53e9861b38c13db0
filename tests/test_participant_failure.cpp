// Containment of a throw that escapes an hw participant's election: run()
// lets every participant count out, then reports the first failure as
// rts::Error, and the pool keeps electing -- also when the throw lands on a
// combined election's child fiber.  A campaign files the trial under
// error_runs; a soak counts the arrival completed and incomplete.  A throw
// on a simulated process's fiber fails its sim trial the same way.
//
// This binary replaces the global operator new with one that can be armed
// to throw std::bad_alloc on a participant thread, or on any fiber stack.
// Participants are told apart from every other thread by their affinity:
// each pool here pins its participants to one CPU, while the main thread
// (and every thread it spawns) keeps the process's wider set.  Each armed
// run executes in an EXPECT_EXIT child, so a std::terminate shows as a
// failed assertion instead of ending the suite.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "campaign/executor.hpp"
#include "campaign/soak.hpp"
#include "hw/harness.hpp"
#include "support/assert.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<int> g_skip{0};  ///< armed allocations to let through
int g_cpu = -1;              ///< set before arming; -1 arms fiber stacks

bool on_participant_thread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  return CPU_COUNT(&set) == 1 && CPU_ISSET(g_cpu, &set);
}

/// True when the caller runs on a fiber's stack rather than its thread's.
bool on_fiber_stack() {
  thread_local const char* low = nullptr;
  thread_local const char* high = nullptr;
  if (low == nullptr) {
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return false;
    void* bottom = nullptr;
    std::size_t size = 0;
    pthread_attr_getstack(&attr, &bottom, &size);
    pthread_attr_destroy(&attr);
    low = static_cast<const char*>(bottom);
    high = low + size;
  }
  const auto* frame = static_cast<const char*>(__builtin_frame_address(0));
  return frame < low || frame >= high;
}

bool on_armed_stack() {
  return g_cpu >= 0 ? on_participant_thread() : on_fiber_stack();
}

void* allocate(std::size_t size) {
  if (g_armed.load(std::memory_order_acquire) && on_armed_stack() &&
      g_skip.fetch_sub(1, std::memory_order_relaxed) <= 0 &&
      g_armed.exchange(false)) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_nothrow(std::size_t size) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rts {
namespace {

constexpr int kParticipants = 3;

/// A CPU to pin participants to, or -1 when the process may run on only
/// one CPU (then every thread would look like a participant).
int participant_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) < 2) {
    return -1;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) return cpu;
  }
  return -1;
}

/// Fails the (skip+1)-th allocation made on a thread pinned to `cpu`, or,
/// for cpu -1, on a fiber's stack.
void arm(int cpu, int skip) {
  g_cpu = cpu;
  g_skip.store(skip, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
}

/// Inside an EXPECT_EXIT child: a failed check exits 1 with a message.
void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
  std::exit(1);
}

bool names_bad_alloc(const std::string& message) {
  return message.find("bad_alloc") != std::string::npos;
}

class ParticipantFailure : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    cpu_ = participant_cpu();
    if (cpu_ < 0) GTEST_SKIP() << "needs at least two CPUs in the affinity set";
  }
  int cpu_ = -1;
};

TEST_F(ParticipantFailure, RunReportsTheThrowAndThePoolKeepsElecting) {
  EXPECT_EXIT(
      {
        hw::HwPoolOptions options;
        options.pin_cpus = {cpu_};
        hw::HwTrialPool pool(kParticipants, options);
        // skip 0 fails a participant's first allocation (its context);
        // skip kParticipants lands inside RatRace's elect(), past every
        // participant's context.
        for (const int skip : {0, kParticipants}) {
          arm(cpu_, skip);
          std::string message;
          try {
            pool.run(algo::AlgorithmId::kRatRace, kParticipants, 11);
          } catch (const Error& error) {
            message = error.what();
          }
          check(!g_armed.load(), "the armed allocation never happened");
          check(names_bad_alloc(message),
                "run() must throw an rts::Error naming bad_alloc, got '" +
                    message + "'");
          const hw::HwRunResult next =
              pool.run(algo::AlgorithmId::kRatRace, kParticipants, 12);
          check(next.completed && next.winners == 1 &&
                    next.violations.empty(),
                "the next election on the pool must elect one winner");
        }
        check(pool.trials_run() == 4, "every attempt counts as a trial");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(ParticipantFailure, RunReportsAThrowOnACombinedChildFiber) {
  EXPECT_EXIT(
      {
        hw::HwPoolOptions options;
        options.pin_cpus = {cpu_};
        hw::HwTrialPool pool(kParticipants, options);
        // Past every participant's context, most allocations of a combined
        // election are lazy RatRace nodes built on a child fiber.  Their
        // count varies with the interleaving, so arm a range of skips.
        int reached = 0;
        for (int skip = kParticipants; skip < 16; ++skip) {
          arm(cpu_, skip);
          std::string message;
          try {
            pool.run(algo::AlgorithmId::kCombinedSift, kParticipants, 11);
          } catch (const Error& error) {
            message = error.what();
          }
          if (g_armed.exchange(false)) {
            check(message.empty(),
                  "an election that never reached the armed allocation "
                  "threw '" + message + "'");
            continue;
          }
          ++reached;
          check(names_bad_alloc(message),
                "skip " + std::to_string(skip) +
                    ": run() must throw an rts::Error naming bad_alloc, "
                    "got '" +
                    message + "'");
          const hw::HwRunResult next =
              pool.run(algo::AlgorithmId::kCombinedSift, kParticipants, 12);
          check(next.completed && next.winners == 1 &&
                    next.violations.empty(),
                "the next election on the pool must elect one winner");
        }
        check(reached > 0, "no armed allocation was ever reached");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(ParticipantFailure, CampaignFilesTheThrowUnderErrorRuns) {
  EXPECT_EXIT(
      {
        campaign::CampaignSpec spec;
        spec.name = "participant-failure";
        spec.backends = {exec::Backend::kHw};
        spec.algorithms = {algo::AlgorithmId::kRatRace};
        spec.adversaries = {algo::AdversaryId::kUniformRandom};
        spec.ks = {kParticipants};
        spec.trials = 1;
        campaign::ExecutorOptions options;
        options.workers = 1;
        options.hw_pin_cpus = {cpu_};
        arm(cpu_, 0);
        const campaign::CampaignResult result =
            campaign::run_campaign(spec, options);
        check(!g_armed.load(), "the armed allocation never happened");
        check(result.cells.size() == 1, "one cell");
        const campaign::CellResult& cell = result.cells[0];
        check(cell.trials_run == 1 && cell.error_runs == 1,
              "the trial must be filed under error_runs, got " +
                  std::to_string(cell.error_runs));
        check(!cell.first_errors.empty() &&
                  names_bad_alloc(cell.first_errors.front()),
              "the cell's first error must name bad_alloc");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(ParticipantFailure, SoakCountsTheArrivalIncomplete) {
  EXPECT_EXIT(
      {
        campaign::SoakSpec spec;
        spec.algorithms = {algo::AlgorithmId::kRatRace};
        spec.k = kParticipants;
        spec.duration_seconds = 0.2;
        spec.rate = 50.0;  // arrivals 20ms apart
        spec.heartbeat_seconds = 10.0;  // no heartbeats
        spec.pin_cpus = {cpu_};
        arm(cpu_, 0);
        const campaign::SoakResult result =
            campaign::run_soak_one(spec, spec.algorithms.front(), nullptr);
        check(!g_armed.load(), "the armed allocation never happened");
        check(result.incomplete == 1,
              "the failed arrival must count as incomplete, got " +
                  std::to_string(result.incomplete));
        check(result.planned > 1 && result.completed == result.planned &&
                  result.timed_out == 0 && result.violations == 0,
              "every arrival is served, none timed out or in violation");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(FiberFailure, SimCampaignFilesAProcessFiberThrowUnderErrorRuns) {
  // RatRace runs on the fiber kernel and builds its tree nodes inside
  // elect(), on the processes' own fibers: the first allocation there
  // throws, and the one-trial cell files it under error_runs.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        campaign::CampaignSpec spec;
        spec.name = "fiber-failure";
        spec.algorithms = {algo::AlgorithmId::kRatRace};
        spec.adversaries = {algo::AdversaryId::kUniformRandom};
        spec.ks = {kParticipants};
        spec.trials = 1;
        campaign::ExecutorOptions options;
        options.workers = 1;
        arm(/*cpu=*/-1, 0);
        const campaign::CampaignResult result =
            campaign::run_campaign(spec, options);
        check(!g_armed.load(), "the armed allocation never happened");
        check(result.cells.size() == 1, "one cell");
        const campaign::CellResult& cell = result.cells[0];
        check(cell.trials_run == 1 && cell.error_runs == 1,
              "the trial must be filed under error_runs, got " +
                  std::to_string(cell.error_runs));
        check(!cell.first_errors.empty() &&
                  names_bad_alloc(cell.first_errors.front()),
              "the cell's first error must name bad_alloc");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace rts
