// perfbench driver: measures the rts library from outside, by timing calls
// into its public API, and prints one JSON report as its last stdout line.
// perfbench/run.py builds this binary, checks the report, and prints the
// benchmark's result line; see perfbench/README.md for the metric
// definitions.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1 --out DIR
//
// Workloads (W):
//   sim-scalar   paper-le grid through run_campaign, batching off, 1 worker
//   hw-service   open-loop run_soak_one at 2000 arrivals/s, k = n = 3, over
//                tournament, ratrace-path and combined-sift back to back
//
// --trace 0 measures the workload's end-to-end metrics, with no spans.
// --trace 1 drives every layer directly, records a span around each call,
// and reports the per-layer metrics; the spans are written to DIR.
//
// Self-test hooks: --force-mismatch flips one byte of the cross-mode
// reporter output (the gate must then fail); --self-test-shed reports a
// synthetic soak in which every arrival was shed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/batch.hpp"
#include "algo/registry.hpp"
#include "campaign/executor.hpp"
#include "campaign/presets.hpp"
#include "campaign/reporter.hpp"
#include "campaign/soak.hpp"
#include "campaign/spec.hpp"
#include "exec/workspace.hpp"
#include "fiber/stack.hpp"
#include "hw/harness.hpp"
#include "hw/platform.hpp"
#include "sim/runner.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "telemetry/histogram.hpp"

namespace {

using namespace rts;
using Clock = std::chrono::steady_clock;

#ifdef PERFBENCH_LTO
constexpr bool kLto = true;
#else
constexpr bool kLto = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

// One campaign worker: on a shared host a multi-worker campaign waits for
// its slowest worker, so its wall time follows the neighbours' load more
// than the library's.  Run interleaved on the reference box, 3-worker
// paper-le campaigns spread 0.19 (quartile distance over median of 20 s
// medians) against 0.05 for 1-worker ones.
constexpr int kWorkers = 1;
constexpr int kLanes = 32;
constexpr int kHwK = 3;
constexpr double kHwRate = 2000.0;
constexpr int kSimSetupReps = 9;
constexpr int kHwSetupReps = 41;
// One soak window per algorithm: 200 arrivals at kHwRate (0.1 s).  The
// soak closes 1.9 arrival periods after the last arrival is due, so a
// dispatcher that wakes a little late still dispatches it.  The traced
// run's one-second hand-off soak gets the same margin.
constexpr int kSoakWindowArrivals = 200;
constexpr double kSoakWindowSeconds = (kSoakWindowArrivals + 0.9) / kHwRate;
constexpr double kHandoffSoakSeconds = (kHwRate + 0.9) / kHwRate;
constexpr std::size_t kMinQuietWindows = 10;
constexpr int kClosedLoopElections = 1000;
constexpr int kBuildCalls = 1000;
constexpr algo::AlgorithmId kHwAlgorithms[] = {
    algo::AlgorithmId::kTournament, algo::AlgorithmId::kRatRacePath,
    algo::AlgorithmId::kCombinedSift};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- statistics --

/// Linear-interpolated sample quantile (the numpy default), q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return NAN;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Percentile of a LatencyHistogram, interpolated linearly inside the
/// bucket that holds it, so a figure is not pinned to a bucket edge.
/// NaN when the histogram is empty.
double histogram_quantile(const telemetry::LatencyHistogram& h, double q) {
  if (h.empty()) return NAN;
  const double target = q * static_cast<double>(h.count());
  double below = 0.0;
  for (std::size_t i = 0; i < telemetry::LatencyHistogram::kBucketCount; ++i) {
    const double in_bucket = static_cast<double>(h.bucket_count_at(i));
    if (in_bucket == 0.0) continue;
    if (below + in_bucket >= target) {
      const double lo =
          static_cast<double>(telemetry::LatencyHistogram::bucket_lower(i));
      const double hi =
          static_cast<double>(telemetry::LatencyHistogram::bucket_upper(i)) +
          1.0;
      const double value = lo + (target - below) / in_bucket * (hi - lo);
      return std::clamp(value, static_cast<double>(h.min()),
                        static_cast<double>(h.max()));
    }
    below += in_bucket;
  }
  return static_cast<double>(h.max());
}

// ---------------------------------------------------------------- tracing --

/// One timed call: name (its prefix up to the first '.' is the layer),
/// start and end relative to the tracer's origin, the enclosing span, and
/// the id shared by every span of one trial or election.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t id = 0;
};

/// In-memory span recorder for the single-threaded layer drives.  Disabled
/// tracers record nothing, so the same drive code runs with and without
/// spans (the difference is the reported tracing overhead).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  int open(const char* name, std::uint64_t id) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, current_, id});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int index) {
    if (index < 0) return;
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    current_ = span.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the time its direct
  /// children cover (children are sequential on the driving thread).
  std::map<std::string, double> self_ms_by_layer() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::string name = span.name;
      const std::string layer = name.substr(0, name.find('.'));
      self[layer] +=
          static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
    }
    return self;
  }

  bool write_jsonl(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"id\":%llu}\n",
                   i, span.name, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns), span.parent,
                   static_cast<unsigned long long>(span.id));
    }
    return std::fclose(file) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Times one call and, on an enabled tracer, records it as a span.  The
/// measured interval lies inside the span, so recording costs never land
/// in a measured figure.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), span_(tracer.open(name, id)), start_(Clock::now()) {}
  ~Timed() {
    if (!stopped_) tracer_.close(span_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the interval and returns it in seconds.
  double stop() {
    const double seconds = seconds_between(start_, Clock::now());
    tracer_.close(span_);
    stopped_ = true;
    return seconds;
  }

 private:
  Tracer& tracer_;
  int span_;
  Clock::time_point start_;
  bool stopped_ = false;
};

// ------------------------------------------------------------------ gauges --

std::size_t maps_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  std::string line;
  while (std::getline(maps, line)) ++lines;
  return lines;
}

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  if (!(statm >> size >> resident)) return NAN;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return NAN;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The host's CPU time counters, from /proc/stat: on a virtual machine the
/// steal share says how much of a run the hypervisor took away.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;

  static HostCpu sample() {
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    HostCpu cpu;
    double field = 0.0;
    for (int i = 0; i < 8 && (stat >> field); ++i) {
      cpu.total += field;
      if (i == 7) cpu.steal = field;
    }
    return cpu;
  }

  /// Steal share of all CPU time since `start`.
  double steal_share_since(const HostCpu& start) const {
    return total > start.total ? (steal - start.steal) / (total - start.total)
                               : NAN;
  }
};

struct Gauges {
  double stacks = 0.0;
  double maps = 0.0;
  double rss_mb = 0.0;

  static Gauges sample() {
    return Gauges{static_cast<double>(fiber::live_stack_count()),
                  static_cast<double>(maps_count()), resident_mb()};
  }
  void raise_to(const Gauges& other) {
    stacks = std::max(stacks, other.stacks);
    maps = std::max(maps, other.maps);
    rss_mb = std::max(rss_mb, other.rss_mb);
  }
};

/// Samples the gauges every `period` on a background thread while a drive
/// runs, keeping the peak: the hw stack hoard lives in thread-local pools
/// that are unmapped when their threads exit, so it is visible only during
/// the drive, never after it.
class PeakSampler {
 public:
  explicit PeakSampler(std::chrono::milliseconds period)
      : peak_(Gauges::sample()), thread_([this, period] { loop(period); }) {}
  ~PeakSampler() { finish(); }
  PeakSampler(const PeakSampler&) = delete;
  PeakSampler& operator=(const PeakSampler&) = delete;

  Gauges finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  void loop(std::chrono::milliseconds period) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      lock.unlock();
      const Gauges now = Gauges::sample();
      lock.lock();
      peak_.raise_to(now);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  Gauges peak_;        // guarded by mu_ until the thread is joined
  std::thread thread_;  // last member: starts after the state above exists
};

// ------------------------------------------------------------------ report --

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The driver's report: metrics with units, metrics marked absent with a
/// reason, named correctness checks, and free-form details (gauges, sample
/// counts) that go to the report file, never into the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      absent(name, "not finite (nothing measured)");
      return;
    }
    metrics_.push_back({name, json_number(value), unit});
  }
  void absent(const std::string& name, const std::string& reason) {
    absent_.push_back({name, reason});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "perfbench: CHECK FAILED %s: %s\n",
                          name.c_str(), detail.c_str());
  }
  void detail(const std::string& name, double value) {
    details_.push_back({name, json_number(value)});
  }
  void detail_array(const std::string& name, const std::vector<double>& values) {
    std::string array = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      array += (i > 0 ? "," : "") + json_number(values[i]);
    }
    details_.push_back({name, array + "]"});
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void set_reporter_file(std::string path) { reporter_file_ = std::move(path); }

  void print(const std::string& workload, std::uint64_t seed, int trace) const {
    bool correct = true;
    for (const Check& check : checks_) correct = correct && check.ok;
    std::string line = "{\"workload\":\"" + workload + "\",\"seed\":" +
                       std::to_string(seed) + ",\"trace\":" +
                       std::to_string(trace) + ",\"correct\":" +
                       (correct ? "true" : "false") + ",\"attempted\":" +
                       std::to_string(attempted_) + ",\"failed\":" +
                       std::to_string(failed_) + ",\"reporter_file\":";
    line += reporter_file_.empty()
                ? "null"
                : "\"" + json_escape(reporter_file_) + "\"";
    line += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      line += (i > 0 ? ",\"" : "\"") + metrics_[i].name + "\":{\"value\":" +
              metrics_[i].value + ",\"unit\":\"" + metrics_[i].unit + "\"}";
    }
    line += "},\"absent\":{";
    for (std::size_t i = 0; i < absent_.size(); ++i) {
      line += (i > 0 ? ",\"" : "\"") + absent_[i].first + "\":\"" +
              json_escape(absent_[i].second) + "\"";
    }
    line += "},\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      line += std::string(i > 0 ? "," : "") + "{\"name\":\"" +
              json_escape(checks_[i].name) + "\",\"ok\":" +
              (checks_[i].ok ? "true" : "false") + ",\"detail\":\"" +
              json_escape(checks_[i].detail) + "\"}";
    }
    line += "],\"details\":{\"compiler\":\"" + json_escape(__VERSION__) +
            "\",\"lto\":" + (kLto ? "true" : "false") +
            ",\"ndebug\":" + (kNdebug ? "true" : "false");
    for (const auto& [name, value] : details_) {
      line += ",\"" + name + "\":" + value;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    std::string value;
    const char* unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> absent_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string reporter_file_;
};

// ------------------------------------------------------------ sim helpers --

/// The paper-le grid with the workload seed; `trials` > 0 overrides the
/// preset's 150 trials per cell.
campaign::CampaignSpec grid_spec(std::uint64_t seed, int trials = 0) {
  const campaign::Preset* preset = campaign::find_preset("paper-le");
  if (preset == nullptr) throw Error("paper-le preset missing");
  campaign::CampaignSpec spec = preset->spec;
  spec.seed = seed;
  if (trials > 0) spec.trials = trials;
  return spec;
}

campaign::ExecutorOptions executor_options(int lanes) {
  campaign::ExecutorOptions options;
  options.workers = kWorkers;
  options.sim_batch_lanes = lanes;
  return options;
}

std::uint64_t campaign_failures(const campaign::CampaignResult& result) {
  std::uint64_t failed = 0;
  for (const campaign::CellResult& cell : result.cells) {
    failed += static_cast<std::uint64_t>(cell.error_runs + cell.incomplete_runs +
                                         cell.agg.violation_runs);
  }
  return failed;
}

std::uint64_t campaign_trials(const campaign::CampaignResult& result) {
  std::uint64_t trials = 0;
  for (const campaign::CellResult& cell : result.cells) {
    trials += static_cast<std::uint64_t>(cell.trials_run);
  }
  return trials;
}

sim::Kernel::Options kernel_options_of(const campaign::CellSpec& cell) {
  sim::Kernel::Options options;
  options.step_limit = cell.step_limit;
  options.rmr_model = cell.rmr;
  return options;
}

exec::BatchStreamFactory batch_factory(const campaign::CellSpec& cell) {
  return [cell] {
    return algo::make_batch_stream(cell.algorithm, cell.adversary, cell.n,
                                   cell.k, kLanes, cell.seed0, cell.step_limit);
  };
}

std::string cell_tag(const campaign::CellSpec& cell) {
  return std::string(algo::info(cell.algorithm).name) + ".k" +
         std::to_string(cell.k);
}

/// Span id shared by every span of one (cell, trial).
std::uint64_t trial_id(const campaign::CellSpec& cell, int trial) {
  return static_cast<std::uint64_t>(cell.index) * 1'000'000u +
         static_cast<std::uint64_t>(trial);
}

bool same_summary(const exec::TrialSummary& a, const exec::TrialSummary& b) {
  return a.max_steps == b.max_steps && a.total_steps == b.total_steps &&
         a.regs_touched == b.regs_touched &&
         a.declared_registers == b.declared_registers &&
         a.unfinished == b.unfinished && a.crash_free == b.crash_free &&
         a.completed == b.completed && a.latency == b.latency &&
         a.rmr_total == b.rmr_total && a.rmr_max == b.rmr_max &&
         a.aborted == b.aborted && a.first_violation == b.first_violation;
}

bool trial_failed(const exec::TrialSummary& s) {
  return !s.completed || !s.first_violation.empty() || s.unfinished > 0;
}

/// Re-runs two trials per cell (one chosen by the seed, plus the last,
/// which sits in the partial final lane block) through the fresh-kernel
/// sim::run_le_trial and requires the pooled and batched paths to match it
/// field for field.
void fresh_cross_check(const campaign::CampaignSpec& spec, Tracer& tracer,
                       Report& report) {
  exec::TrialWorkspace workspace;
  int compared = 0;
  std::string first_mismatch;
  for (const campaign::CellSpec& cell : campaign::expand(spec)) {
    const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
    const sim::AdversaryFactory adversary =
        algo::adversary_factory(cell.adversary);
    const int sampled = static_cast<int>(
        support::derive_seed(spec.seed, static_cast<std::uint64_t>(cell.index)) %
        static_cast<std::uint64_t>(cell.trials));
    for (const int trial : {sampled, cell.trials - 1}) {
      Timed fresh_call(tracer, "sim.run_le_trial", trial_id(cell, trial));
      const exec::TrialSummary fresh = sim::summarize_trial(
          sim::run_le_trial(builder, cell.n, cell.k, adversary, trial,
                            cell.seed0, kernel_options_of(cell)));
      fresh_call.stop();
      const exec::TrialSummary pooled = workspace.run_le_trial_summary(
          static_cast<std::uint64_t>(cell.index), builder, cell.n, cell.k,
          adversary, trial, cell.seed0, kernel_options_of(cell));
      const exec::TrialSummary batched = workspace.run_le_batch_trial(
          static_cast<std::uint64_t>(cell.index), batch_factory(cell), kLanes,
          trial, cell.trials);
      ++compared;
      if (first_mismatch.empty() &&
          (!same_summary(fresh, pooled) || !same_summary(fresh, batched))) {
        first_mismatch = cell_tag(cell) + " trial " + std::to_string(trial);
      }
    }
  }
  report.check("fresh_path_cross_check", first_mismatch.empty(),
               first_mismatch.empty()
                   ? std::to_string(compared) +
                         " sampled trials: fresh == pooled == batched"
                   : "divergence at " + first_mismatch);
}

std::string write_file(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) throw Error("cannot write " + path);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) ==
                  bytes.size();
  if (std::fclose(file) != 0 || !ok) throw Error("cannot write " + path);
  return path;
}

// ------------------------------------------------------------ sim drives --

struct SimDrive {
  std::vector<std::vector<exec::TrialSummary>> summaries;  // per cell
  double seconds = 0.0;            // every trial call, builds included
  std::uint64_t trials = 0;
  std::uint64_t steps = 0;
  double build_ms = 0.0;           // first calls beyond the steady state
  std::vector<double> ns_per_step;  // per cell, steady state
  std::uint64_t stream_builds = 0;
  std::uint64_t adversary_builds = 0;
  /// Per trial: wall time of its run_le_trial_summary call, in
  /// microseconds (scalar drives only).
  std::vector<double> trial_us;
};

/// Single-threaded scalar drive of every cell's trials in order through one
/// TrialWorkspace (what one campaign worker does).
SimDrive scalar_drive(const std::vector<campaign::CellSpec>& cells,
                      Tracer& tracer) {
  SimDrive drive;
  exec::TrialWorkspace workspace;
  for (const campaign::CellSpec& cell : cells) {
    const sim::LeBuilder builder = algo::sim_builder(cell.algorithm);
    const sim::AdversaryFactory adversary =
        algo::adversary_factory(cell.adversary);
    const sim::Kernel::Options kernel_options = kernel_options_of(cell);
    Timed cell_span(tracer, "bench.scalar_cell",
                    static_cast<std::uint64_t>(cell.index));
    std::vector<exec::TrialSummary> summaries;
    double first_s = 0.0;
    std::uint64_t first_steps = 0;
    double steady_s = 0.0;
    std::uint64_t steady_steps = 0;
    for (int trial = 0; trial < cell.trials; ++trial) {
      Timed call(tracer, "exec.run_le_trial_summary", trial_id(cell, trial));
      exec::TrialSummary summary = workspace.run_le_trial_summary(
          static_cast<std::uint64_t>(cell.index), builder, cell.n, cell.k,
          adversary, trial, cell.seed0, kernel_options);
      const double elapsed = call.stop();
      if (trial == 0) {
        first_s = elapsed;
        first_steps = summary.total_steps;
      } else {
        steady_s += elapsed;
        steady_steps += summary.total_steps;
      }
      drive.seconds += elapsed;
      drive.steps += summary.total_steps;
      drive.trial_us.push_back(elapsed * 1e6);
      summaries.push_back(std::move(summary));
    }
    cell_span.stop();
    const double ns_per_step =
        steady_steps > 0 ? steady_s * 1e9 / static_cast<double>(steady_steps)
                         : NAN;
    drive.ns_per_step.push_back(ns_per_step);
    drive.build_ms +=
        (first_s - ns_per_step * 1e-9 * static_cast<double>(first_steps)) * 1e3;
    drive.trials += summaries.size();
    drive.summaries.push_back(std::move(summaries));
  }
  drive.stream_builds = workspace.stream_builds();
  drive.adversary_builds = workspace.adversary_builds();
  return drive;
}

// ------------------------------------------------------ sim workloads e2e --

void run_sim_workload(std::uint64_t seed, double seconds,
                      const std::string& out_dir, bool force_mismatch,
                      Report& report) {
  const campaign::ExecutorOptions options = executor_options(0);

  // Set-up: the same grid at one trial per cell, so spec expansion plus one
  // stream build per cell.
  std::vector<double> setup;
  const campaign::CampaignSpec setup_spec = grid_spec(seed, 1);
  for (int rep = 0; rep < kSimSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    const campaign::CampaignResult result =
        campaign::run_campaign(setup_spec, options);
    setup.push_back(seconds_between(start, Clock::now()));
    report.count(campaign_trials(result), campaign_failures(result));
  }

  // Closed-loop batch job: whole paper-le campaigns back to back.  After
  // each one, a direct drive of the grid on one thread times every trial:
  // the campaign reports no per-trial times, and its one worker makes these
  // same pooled-workspace calls in the same order.  Each drive takes the
  // grid with its own seed drawn from the workload's, so the tail is
  // sampled over many distinct trials, not the same 1800 again.
  const campaign::CampaignSpec spec = grid_spec(seed);
  std::vector<double> job_seconds;
  std::vector<double> job_rate;
  std::vector<double> trial_us;
  std::vector<double> drive_p99_us;
  std::string bytes;
  bool repeatable = true;
  const HostCpu host_before = HostCpu::sample();
  const Clock::time_point begin = Clock::now();
  while (job_seconds.size() < 3 ||
         seconds_between(begin, Clock::now()) < seconds) {
    const Clock::time_point start = Clock::now();
    const campaign::CampaignResult result = campaign::run_campaign(spec, options);
    const double elapsed = seconds_between(start, Clock::now());
    const std::uint64_t trials = campaign_trials(result);
    job_seconds.push_back(elapsed);
    job_rate.push_back(static_cast<double>(trials) / elapsed);
    report.count(trials, campaign_failures(result));
    std::string rendered =
        campaign::render_to_string(result, campaign::ReportFormat::kJsonl);
    if (bytes.empty()) {
      bytes = std::move(rendered);
    } else if (rendered != bytes) {
      repeatable = false;
    }

    const std::uint64_t drive_seed = support::derive_seed(
        seed, static_cast<std::uint64_t>(job_seconds.size()));
    const std::vector<campaign::CellSpec> cells =
        campaign::expand(grid_spec(drive_seed));
    Tracer off(false);
    const SimDrive drive = scalar_drive(cells, off);
    std::uint64_t failed = 0;
    for (const std::vector<exec::TrialSummary>& cell : drive.summaries) {
      for (const exec::TrialSummary& summary : cell) {
        failed += trial_failed(summary);
      }
    }
    report.count(drive.trials, failed);
    trial_us.insert(trial_us.end(), drive.trial_us.begin(),
                    drive.trial_us.end());
    drive_p99_us.push_back(quantile(drive.trial_us, 0.99));
  }
  const double peak = peak_rss_mb();
  report.detail("host_steal_share",
                HostCpu::sample().steal_share_since(host_before));

  report.metric("throughput_per_s", median(job_rate), "1/s");
  report.metric("latency_p50_us", quantile(trial_us, 0.50), "us");
  // The p99 is the lower quartile of the drives' p99s.  Within one run
  // they range over +-30% as bursts of the neighbours' load come and go,
  // and a burst only ever adds time, so this figure is the trials' tail
  // with the neighbours quiet, as hw-service keeps only its steal-free
  // windows.  (Measured over ten runs, it spread 0.08 where the median of
  // the drives' p99s spread 0.22.)
  report.metric("latency_p99_us", quantile(drive_p99_us, 0.25), "us");
  report.detail("latency_p99_us_median_drive", median(drive_p99_us));
  report.detail("latency_p99_us_all_drives", quantile(trial_us, 0.99));
  report.detail_array("drive_latency_p99_us", drive_p99_us);
  report.metric("setup_s", median(setup), "s");
  report.metric("peak_rss_mb", peak, "MB");
  report.detail("jobs", static_cast<double>(job_seconds.size()));
  report.detail_array("job_seconds", job_seconds);
  report.detail("latency_samples", static_cast<double>(trial_us.size()));
  report.detail("setup_samples", static_cast<double>(setup.size()));
  report.detail("trials_per_job",
                static_cast<double>(spec.trials) *
                    static_cast<double>(campaign::expand(spec).size()));

  report.check("reporter_bytes_repeatable", repeatable,
               "every campaign of the run rendered identical jsonl");
  // The batched engine on the same seed must render the same bytes.
  const campaign::CampaignResult other =
      campaign::run_campaign(spec, executor_options(kLanes));
  std::string other_bytes =
      campaign::render_to_string(other, campaign::ReportFormat::kJsonl);
  if (force_mismatch && !other_bytes.empty()) other_bytes.back() ^= 1;
  report.check("batched_equals_scalar", other_bytes == bytes,
               "jsonl of the sim_batch_lanes=0 and =" +
                   std::to_string(kLanes) + " campaigns");
  report.set_reporter_file(write_file(
      out_dir + "/reporter-sim-scalar-seed" + std::to_string(seed) + ".jsonl",
      bytes));
  Tracer off(false);
  fresh_cross_check(spec, off, report);
}

// ------------------------------------------------------ hw workload e2e --

/// Totals of the soaks of one run, merged over its algorithms.
struct SoakTotals {
  std::uint64_t planned = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t shed = 0;
  std::uint64_t violations = 0;
  std::uint64_t incomplete = 0;
  double wall_seconds = 0.0;
  telemetry::LatencyHistogram latency;

  void add(const campaign::SoakResult& result) {
    planned += result.planned;
    completed += result.completed;
    timed_out += result.timed_out;
    shed += result.shed;
    violations += result.violations;
    incomplete += result.incomplete;
    wall_seconds += result.wall_seconds;
    latency.merge(result.latency);
  }
};

/// Arrivals the soak's generator issued: each one was served, timed out or
/// shed.  The rest of the planned arrivals were still unsent when their
/// window closed, because the generator woke late (a host stall); they were
/// never offered to the service, so they are the generator's lateness, not
/// failed operations.
std::uint64_t soak_issued(std::uint64_t completed, std::uint64_t timed_out,
                          std::uint64_t shed) {
  return completed + timed_out + shed;
}

/// Issued arrivals that did not yield one clean election.
std::uint64_t soak_failed(std::uint64_t issued, std::uint64_t completed,
                          std::uint64_t violations, std::uint64_t incomplete) {
  return issued - std::min(issued, completed) + violations + incomplete;
}

/// The hw-service end-to-end report, shared by the real workload and the
/// all-shed self-test: latency is absent, never zero, when nothing
/// completed.
void report_soak(const SoakTotals& totals,
                 const telemetry::LatencyHistogram& latency,
                 const std::vector<double>& window_p99_us, Report& report) {
  const std::uint64_t issued =
      soak_issued(totals.completed, totals.timed_out, totals.shed);
  const std::uint64_t failed = soak_failed(issued, totals.completed,
                                           totals.violations, totals.incomplete);
  report.count(issued, failed);
  report.detail("failed_share", issued > 0 ? static_cast<double>(failed) /
                                                 static_cast<double>(issued)
                                           : NAN);
  report.detail("planned", static_cast<double>(totals.planned));
  report.detail("issued", static_cast<double>(issued));
  report.detail("generator_missed", static_cast<double>(totals.planned - issued));
  report.detail("completed", static_cast<double>(totals.completed));
  report.detail("timed_out", static_cast<double>(totals.timed_out));
  report.detail("shed", static_cast<double>(totals.shed));
  report.detail("latency_samples", static_cast<double>(latency.count()));
  report.metric("throughput_per_s",
                static_cast<double>(totals.completed) / totals.wall_seconds,
                "1/s");
  if (latency.empty()) {
    report.absent("latency_p50_us", "no election completed");
    report.absent("latency_p99_us", "no election completed");
  } else {
    report.metric("latency_p50_us", histogram_quantile(latency, 0.50) / 1e3,
                  "us");
    report.metric("latency_p99_us", median(window_p99_us), "us");
    report.detail("latency_p99_us_all_windows",
                  histogram_quantile(totals.latency, 0.99) / 1e3);
  }
  report.check("hw_no_violations", totals.violations == 0,
               std::to_string(totals.violations) + " violating elections");
  report.check("hw_outcomes_within_plan",
               totals.completed + totals.timed_out + totals.shed <=
                   totals.planned,
               "completed + timed_out + shed <= planned");
}

campaign::SoakSpec soak_spec(std::uint64_t seed, double duration) {
  campaign::SoakSpec spec;
  spec.name = "perfbench-hw-service";
  spec.algorithms.assign(std::begin(kHwAlgorithms), std::end(kHwAlgorithms));
  spec.k = kHwK;
  spec.n = kHwK;
  spec.duration_seconds = duration;
  spec.rate = kHwRate;
  spec.seed = seed;
  spec.shards = 1;
  return spec;
}

/// Resource gauges of one algorithm's soaks: before its first window, after
/// its last, and the largest growth across a single window.  Peak sampling
/// during a soak is left to the traced run: reading /proc/self/maps takes
/// the mmap lock that combined-sift's stack mappings contend for, which
/// would perturb the latency this run reports.
struct SoakGauges {
  Gauges first_before;
  Gauges last_after;
  Gauges max_growth;
  bool seen = false;

  void add(const Gauges& before, const Gauges& after) {
    if (!seen) first_before = before;
    seen = true;
    last_after = after;
    max_growth.raise_to(Gauges{after.stacks - before.stacks,
                               after.maps - before.maps,
                               after.rss_mb - before.rss_mb});
  }

  void report(Report& report, const std::string& prefix) const {
    const std::pair<const char*, const Gauges*> phases[] = {
        {"before", &first_before},
        {"after", &last_after},
        {"max_window_growth", &max_growth}};
    for (const auto& [phase, gauges] : phases) {
      report.detail(prefix + ".live_stacks." + phase, gauges->stacks);
      report.detail(prefix + ".maps." + phase, gauges->maps);
      report.detail(prefix + ".rss_mb." + phase, gauges->rss_mb);
    }
  }
};

/// Runs one soak with a newly spawned thread as its dispatcher, so the
/// caller's CPU placement is drawn afresh per soak instead of being fixed
/// for the whole run by the main thread's.
campaign::SoakResult soak_on_fresh_thread(const campaign::SoakSpec& spec,
                                          algo::AlgorithmId id) {
  campaign::SoakResult result;
  std::exception_ptr error;
  std::thread caller([&] {
    try {
      result = campaign::run_soak_one(spec, id, nullptr);
    } catch (...) {
      error = std::current_exception();
    }
  });
  caller.join();
  if (error) std::rethrow_exception(error);
  return result;
}

void run_hw_workload(std::uint64_t seed, double seconds, Report& report) {
  // Set-up per algorithm: pool construction plus its first election.
  double setup_total = 0.0;
  std::uint64_t setup_violations = 0;
  for (const algo::AlgorithmId id : kHwAlgorithms) {
    std::vector<double> reps;
    for (int rep = 0; rep < kHwSetupReps; ++rep) {
      const Clock::time_point start = Clock::now();
      hw::HwTrialPool pool(kHwK);
      const hw::HwRunResult first = pool.run(
          id, kHwK, support::derive_seed(seed, static_cast<std::uint64_t>(rep)));
      reps.push_back(seconds_between(start, Clock::now()));
      if (!first.violations.empty() || !first.completed) ++setup_violations;
    }
    setup_total += median(reps);
  }
  report.check("hw_setup_elections_clean", setup_violations == 0,
               std::to_string(setup_violations) + " bad set-up elections");

  // The run is cut into short windows; each window soaks every algorithm
  // once and merges their latencies.  The latency figures come from the
  // windows in which the host stole no CPU time (the hypervisor's stalls
  // are not the service's), and the p99 is the median of those windows'
  // p99s, so a stall the steal counter misses moves one window, not the
  // figure.  With fewer than kMinQuietWindows such windows, all count.
  const int windows = std::max(
      1, static_cast<int>(std::lround(
             seconds / (kSoakWindowSeconds *
                        static_cast<double>(std::size(kHwAlgorithms))))));
  SoakTotals totals;
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<double> window_backlog;
  std::vector<double> window_steal;
  std::vector<telemetry::LatencyHistogram> window_histograms;
  std::map<std::string, SoakGauges> gauges;
  const HostCpu host_before = HostCpu::sample();
  for (int window = 0; window < windows; ++window) {
    const campaign::SoakSpec spec = soak_spec(
        support::derive_seed(seed, static_cast<std::uint64_t>(window)),
        kSoakWindowSeconds);
    telemetry::LatencyHistogram window_latency;
    std::uint64_t backlog = 0;
    const HostCpu window_start = HostCpu::sample();
    for (const algo::AlgorithmId id : kHwAlgorithms) {
      const Gauges before = Gauges::sample();
      const campaign::SoakResult result = soak_on_fresh_thread(spec, id);
      gauges[algo::info(id).name].add(before, Gauges::sample());
      totals.add(result);
      window_latency.merge(result.latency);
      backlog = std::max(backlog, result.max_backlog);
    }
    window_p50.push_back(histogram_quantile(window_latency, 0.50) / 1e3);
    window_p99.push_back(histogram_quantile(window_latency, 0.99) / 1e3);
    window_histograms.push_back(std::move(window_latency));
    window_backlog.push_back(static_cast<double>(backlog));
    window_steal.push_back(HostCpu::sample().steal - window_start.steal);
  }
  const double peak = peak_rss_mb();
  report.detail("host_steal_share",
                HostCpu::sample().steal_share_since(host_before));
  const auto quiet = static_cast<std::size_t>(
      std::count(window_steal.begin(), window_steal.end(), 0.0));
  const bool filter = quiet >= kMinQuietWindows;
  telemetry::LatencyHistogram latency;
  std::vector<double> p99s;
  for (std::size_t w = 0; w < window_histograms.size(); ++w) {
    if (filter && window_steal[w] != 0.0) continue;
    latency.merge(window_histograms[w]);
    p99s.push_back(window_p99[w]);
  }
  report.detail("latency_windows", static_cast<double>(p99s.size()));
  report.detail("latency_windows_steal_free", filter ? 1.0 : 0.0);
  report_soak(totals, latency, p99s, report);
  report.metric("setup_s", setup_total, "s");
  report.metric("peak_rss_mb", peak, "MB");
  report.detail("setup_samples_per_algorithm", kHwSetupReps);
  report.detail("windows", windows);
  report.detail("window_seconds_per_algorithm", kSoakWindowSeconds);
  report.detail_array("window_latency_p50_us", window_p50);
  report.detail_array("window_latency_p99_us", window_p99);
  report.detail_array("window_max_backlog", window_backlog);
  report.detail_array("window_steal_ticks", window_steal);
  for (const auto& [name, algo_gauges] : gauges) {
    algo_gauges.report(report, "gauge." + name);
  }
}

/// Self-test: a soak in which every arrival was shed must report
/// failed_share 1 and no latency figures.
void run_shed_self_test(Report& report) {
  SoakTotals totals;
  totals.planned = 1000;
  totals.shed = 1000;
  totals.wall_seconds = 1.0;
  report_soak(totals, totals.latency, {}, report);
  report.metric("setup_s", 1.0, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// -------------------------------------------------------- traced drives --

/// Single-threaded batched drive: trials in order through one
/// TrialWorkspace's batch slots; a call that computes a lane block is timed
/// against the steps summed over the block's lanes.
SimDrive batched_drive(const std::vector<campaign::CellSpec>& cells,
                       Tracer& tracer) {
  SimDrive drive;
  exec::TrialWorkspace workspace;
  for (const campaign::CellSpec& cell : cells) {
    const exec::BatchStreamFactory factory = batch_factory(cell);
    Timed cell_span(tracer, "bench.batched_cell",
                    static_cast<std::uint64_t>(cell.index));
    std::vector<exec::TrialSummary> summaries;
    // Per block: time of its computing call and steps over its lanes.
    std::vector<std::pair<double, std::uint64_t>> blocks;
    for (int trial = 0; trial < cell.trials; ++trial) {
      const std::uint64_t blocks_before = workspace.batch_blocks_run();
      Timed call(tracer, "exec.run_le_batch_trial", trial_id(cell, trial));
      exec::TrialSummary summary = workspace.run_le_batch_trial(
          static_cast<std::uint64_t>(cell.index), factory, kLanes, trial,
          cell.trials);
      const double elapsed = call.stop();
      if (workspace.batch_blocks_run() != blocks_before) {
        blocks.push_back({0.0, 0});
      }
      if (blocks.empty()) throw Error("batched trial served without a block");
      blocks.back().first += elapsed;
      blocks.back().second += summary.total_steps;
      drive.seconds += elapsed;
      drive.steps += summary.total_steps;
      summaries.push_back(std::move(summary));
    }
    cell_span.stop();
    double steady_s = 0.0;
    std::uint64_t steady_steps = 0;
    for (std::size_t b = 1; b < blocks.size(); ++b) {
      steady_s += blocks[b].first;
      steady_steps += blocks[b].second;
    }
    const double ns_per_lane_step =
        steady_steps > 0 ? steady_s * 1e9 / static_cast<double>(steady_steps)
                         : NAN;
    drive.ns_per_step.push_back(ns_per_lane_step);
    if (!blocks.empty()) {
      drive.build_ms += (blocks[0].first - ns_per_lane_step * 1e-9 *
                                               static_cast<double>(
                                                   blocks[0].second)) *
                        1e3;
    }
    drive.trials += summaries.size();
    drive.summaries.push_back(std::move(summaries));
  }
  return drive;
}

/// Lane fill of the batch engine when the flattened trial space is dealt
/// in the executor's initial contiguous near-equal worker slices (work
/// stealing, which is timing-dependent, is not replayed): one workspace per
/// emulated worker, read off its public counters.
double static_slice_lane_fill(const std::vector<campaign::CellSpec>& cells) {
  std::vector<std::pair<std::size_t, int>> flat;  // (cell position, trial)
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (int trial = 0; trial < cells[c].trials; ++trial) {
      flat.push_back({c, trial});
    }
  }
  std::uint64_t served = 0;
  std::uint64_t blocks = 0;
  std::size_t begin = 0;
  for (std::size_t w = 0; w < static_cast<std::size_t>(kWorkers); ++w) {
    const std::size_t len = flat.size() / kWorkers +
                            (w < flat.size() % kWorkers ? 1 : 0);
    exec::TrialWorkspace workspace;
    for (std::size_t i = begin; i < begin + len; ++i) {
      const campaign::CellSpec& cell = cells[flat[i].first];
      workspace.run_le_batch_trial(static_cast<std::uint64_t>(cell.index),
                                   batch_factory(cell), kLanes, flat[i].second,
                                   cell.trials);
    }
    served += workspace.batch_trials_run();
    blocks += workspace.batch_blocks_run();
    begin += len;
  }
  return static_cast<double>(served) /
         (static_cast<double>(blocks) * static_cast<double>(kLanes));
}

double campaign_rate(const campaign::CampaignSpec& spec, int lanes,
                     Tracer& tracer, std::uint64_t* sim_steps) {
  std::vector<double> rates;
  for (int rep = 0; rep < 2; ++rep) {
    Timed call(tracer, "campaign.run_campaign", static_cast<std::uint64_t>(lanes));
    const campaign::CampaignResult result =
        campaign::run_campaign(spec, executor_options(lanes));
    rates.push_back(static_cast<double>(campaign_trials(result)) / call.stop());
    *sim_steps = result.sim_steps;
  }
  return median(rates);
}

void trace_sim_layers(std::uint64_t seed, Tracer& tracer, Report& report) {
  const campaign::CampaignSpec spec = grid_spec(seed);
  const std::vector<campaign::CellSpec> cells = campaign::expand(spec);

  SimDrive scalar;
  {
    Timed span(tracer, "bench.scalar_drive", 0);
    scalar = scalar_drive(cells, tracer);
  }
  SimDrive batched;
  {
    Timed span(tracer, "bench.batched_drive", 0);
    batched = batched_drive(cells, tracer);
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::string tag = cell_tag(cells[c]);
    report.metric("sim.ns_per_step." + tag, scalar.ns_per_step[c], "ns");
    report.metric("sim.batch.ns_per_lane_step." + tag, batched.ns_per_step[c],
                  "ns");
  }
  report.metric("sim.steps", static_cast<double>(scalar.steps), "count");
  report.metric("exec.stream_build_ms", scalar.build_ms, "ms");
  report.metric("exec.stream_builds", static_cast<double>(scalar.stream_builds),
                "count");
  report.metric("exec.adversary_builds",
                static_cast<double>(scalar.adversary_builds), "count");
  report.metric("exec.batch_build_ms", batched.build_ms, "ms");
  report.metric("exec.batch.lane_fill", static_slice_lane_fill(cells), "ratio");

  std::uint64_t failed = 0;
  std::string first_mismatch;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t t = 0; t < scalar.summaries[c].size(); ++t) {
      failed += trial_failed(scalar.summaries[c][t]) +
                trial_failed(batched.summaries[c][t]);
      if (first_mismatch.empty() &&
          !same_summary(scalar.summaries[c][t], batched.summaries[c][t])) {
        first_mismatch = cell_tag(cells[c]) + " trial " + std::to_string(t);
      }
    }
  }
  report.count(scalar.trials + batched.trials, failed);
  report.check("batched_equals_scalar_per_trial", first_mismatch.empty(),
               first_mismatch.empty() ? "every trial summary identical"
                                      : "divergence at " + first_mismatch);

  std::uint64_t scalar_campaign_steps = 0;
  std::uint64_t batched_campaign_steps = 0;
  const double scalar_rate =
      campaign_rate(spec, 0, tracer, &scalar_campaign_steps);
  const double batched_rate =
      campaign_rate(spec, kLanes, tracer, &batched_campaign_steps);
  report.metric("campaign.scaling_eff.scalar",
                scalar_rate / (kWorkers * static_cast<double>(scalar.trials) /
                               scalar.seconds),
                "ratio");
  report.metric("campaign.scaling_eff.batched",
                batched_rate / (kWorkers * static_cast<double>(batched.trials) /
                                batched.seconds),
                "ratio");
  report.check("direct_drive_steps_equal_campaign",
               scalar.steps == scalar_campaign_steps &&
                   scalar.steps == batched_campaign_steps,
               "direct-drive step total vs CampaignResult::sim_steps");

  fresh_cross_check(spec, tracer, report);

  // Tracing overhead: the same scalar drive over the k <= 256 cells, spans
  // off and on, alternated.
  std::vector<campaign::CellSpec> small;
  for (const campaign::CellSpec& cell : cells) {
    if (cell.k <= 256) small.push_back(cell);
  }
  std::vector<double> off_s;
  std::vector<double> on_s;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer off(false);
    off_s.push_back(scalar_drive(small, off).seconds);
    Timed span(tracer, "bench.overhead_drive", static_cast<std::uint64_t>(rep));
    on_s.push_back(scalar_drive(small, tracer).seconds);
  }
  report.metric("trace.overhead_pct",
                (median(on_s) - median(off_s)) / median(off_s) * 100.0, "%");
}

void trace_hw_layers(std::uint64_t seed, Tracer& tracer, Report& report) {
  std::vector<double> start_ms;
  std::uint64_t elections = 0;
  std::uint64_t failed = 0;
  std::uint64_t bad = 0;
  for (const algo::AlgorithmId id : kHwAlgorithms) {
    const std::string name = algo::info(id).name;
    const auto algo_index = static_cast<std::uint64_t>(id);
    std::unique_ptr<hw::HwTrialPool> pool;
    {
      Timed ctor(tracer, "hw.HwTrialPool.ctor", algo_index);
      pool = std::make_unique<hw::HwTrialPool>(kHwK);
      start_ms.push_back(ctor.stop() * 1e3);
    }
    for (int warm = 0; warm < 20; ++warm) {
      pool->run(id, kHwK, support::derive_seed(seed, 1'000'000u + warm));
    }
    Gauges before;
    {
      Timed gauge(tracer, "fiber.live_stack_count", algo_index);
      before = Gauges::sample();
    }
    std::vector<double> run_us;
    std::vector<double> election_us;
    double ops = 0.0;
    for (int e = 0; e < kClosedLoopElections; ++e) {
      Timed call(tracer, "hw.HwTrialPool.run",
                 algo_index * 1'000'000u + static_cast<std::uint64_t>(e));
      const hw::HwRunResult result = pool->run(
          id, kHwK, support::derive_seed(seed, static_cast<std::uint64_t>(e)));
      run_us.push_back(call.stop() * 1e6);
      election_us.push_back(result.wall_seconds * 1e6);
      for (const std::uint64_t count : result.ops) {
        ops += static_cast<double>(count);
      }
      ++elections;
      if (!result.violations.empty() || !result.completed) {
        ++failed;
        ++bad;
      }
    }
    Gauges after;
    {
      Timed gauge(tracer, "fiber.live_stack_count", algo_index);
      after = Gauges::sample();
    }
    const double per_kelection = 1000.0 / kClosedLoopElections;
    report.metric("hw.pool_run_us_p50." + name, quantile(run_us, 0.50), "us");
    report.metric("hw.pool_run_us_p99." + name, quantile(run_us, 0.99), "us");
    report.metric("hw.election_us_p50." + name, quantile(election_us, 0.50),
                  "us");
    report.metric("hw.ops_per_election." + name, ops / kClosedLoopElections,
                  "count");
    report.metric("fiber.live_stacks_per_kelection." + name,
                  (after.stacks - before.stacks) * per_kelection, "count");
    report.metric("hw.maps_per_kelection." + name,
                  (after.maps - before.maps) * per_kelection, "count");

    std::vector<double> build_us;
    for (int call_index = 0; call_index < kBuildCalls; ++call_index) {
      hw::RegisterPool registers;
      hw::HwPlatform::Arena arena(registers);
      Timed call(tracer, "algo.make_hw_le", algo_index);
      std::unique_ptr<algo::ILeaderElect<hw::HwPlatform>> le =
          hw::make_hw_le(id, arena, kHwK);
      build_us.push_back(call.stop() * 1e6);
    }
    report.metric("algo.hw_build_us." + name, median(build_us), "us");

    // Open-loop hand-off: a one-second soak at the workload's rate.
    const campaign::SoakSpec spec = soak_spec(seed, kHandoffSoakSeconds);
    const Gauges soak_before = Gauges::sample();
    PeakSampler sampler(std::chrono::milliseconds(100));
    Timed soak_call(tracer, "campaign.run_soak_one", algo_index);
    const campaign::SoakResult soak = campaign::run_soak_one(spec, id, nullptr);
    soak_call.stop();
    Gauges peak = sampler.finish();
    peak.raise_to(Gauges::sample());
    const std::uint64_t issued =
        soak_issued(soak.completed, soak.timed_out, soak.shed);
    elections += issued;
    failed += soak_failed(issued, soak.completed, soak.violations,
                          soak.incomplete);
    bad += soak.violations + soak.incomplete;
    report.metric("campaign.soak_handoff_us_p50." + name,
                  histogram_quantile(soak.latency, 0.50) / 1e3 -
                      quantile(run_us, 0.50),
                  "us");
    report.metric("hw.soak_stacks_peak_growth." + name,
                  peak.stacks - soak_before.stacks, "count");
    report.metric("hw.soak_maps_peak_growth." + name,
                  peak.maps - soak_before.maps, "count");
    report.metric("hw.soak_rss_peak_growth_mb." + name,
                  peak.rss_mb - soak_before.rss_mb, "MB");
    const telemetry::PerfCounts perf = pool->perf_totals();
    if (!perf.any()) {
      report.absent("hw.perf_counters." + name,
                    "perf_event_open unavailable on this machine");
    }
  }
  report.metric("hw.pool_start_ms", median(start_ms), "ms");
  report.count(elections, failed);
  report.check("hw_traced_elections_clean", bad == 0,
               std::to_string(bad) + " violating or incomplete elections of " +
                   std::to_string(elections));
}

void run_traced(std::uint64_t seed, const std::string& workload,
                const std::string& out_dir, Report& report) {
  Tracer tracer(true);
  {
    Timed span(tracer, "bench.sim_layers", 0);
    trace_sim_layers(seed, tracer, report);
  }
  {
    Timed span(tracer, "bench.hw_layers", 0);
    trace_hw_layers(seed, tracer, report);
  }
  for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
    report.metric("self_ms." + layer, ms, "ms");
  }
  report.metric("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
  const std::string path = out_dir + "/spans-" + workload + "-seed" +
                           std::to_string(seed) + ".jsonl";
  report.check("spans_written", tracer.write_jsonl(path), path);
}

// ------------------------------------------------------------------- main --

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
  bool force_mismatch = false;
  bool self_test_shed = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (arg == "--trace" && has_value) {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (arg == "--out" && has_value) {
      args->out_dir = argv[++i];
    } else if (arg == "--force-mismatch") {
      args->force_mismatch = true;
    } else if (arg == "--self-test-shed") {
      args->self_test_shed = true;
    } else {
      return false;
    }
  }
  const bool known = args->workload == "sim-scalar" ||
                     args->workload == "hw-service";
  return args->self_test_shed ||
         (known && args->seconds > 0.0 && args->trace >= 0 &&
          !args->out_dir.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "sim-scalar|hw-service --seed N --seconds S "
                 "--trace 0|1 --out DIR [--force-mismatch] | --self-test-shed\n");
    return 2;
  }
  Report report;
  try {
    if (args.self_test_shed) {
      run_shed_self_test(report);
      report.print("hw-service", 0, 0);
      return 0;
    }
    if (args.trace == 1) {
      run_traced(args.seed, args.workload, args.out_dir, report);
    } else if (args.workload == "hw-service") {
      run_hw_workload(args.seed, args.seconds, report);
    } else {
      run_sim_workload(args.seed, args.seconds, args.out_dir,
                       args.force_mismatch, report);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
  report.print(args.workload, args.seed, args.trace);
  return 0;
}
