#include "exec/workspace.hpp"

#include <utility>

#include "fiber/fiber.hpp"
#include "fiber/stack.hpp"
#include "support/assert.hpp"

namespace rts::exec {

namespace {

/// Workspace process stacks are deliberately smaller than the fresh path's
/// 128 KB default: algorithm frames are shallow (all elections are
/// iterative; combiner children bring their own stacks), and with hundreds
/// of fibers per stream the denser footprint measurably cuts the
/// stack-switch cache traffic of the random adversary.  The guard page
/// still faults deterministically on overflow.
constexpr std::size_t kWorkspaceStackBytes = 16 * 1024;

bool same_options(const sim::Kernel::Options& a, const sim::Kernel::Options& b) {
  return a.step_limit == b.step_limit && a.track_events == b.track_events &&
         a.rmr_model == b.rmr_model;
}

}  // namespace

TrialWorkspace::Stream& TrialWorkspace::entry(std::uint64_t key) {
  for (auto& stream : streams_) {
    if (stream->key == key) {
      stream->last_used = ++clock_;
      return *stream;
    }
  }
  if (streams_.size() >= options_.max_prepared && !streams_.empty()) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < streams_.size(); ++i) {
      if (streams_[i]->last_used < streams_[victim]->last_used) victim = i;
    }
    // Tearing the stream down releases its fibers' stacks into the
    // process-wide pool, where the replacement stream's build reclaims them.
    streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  auto stream = std::make_unique<Stream>();
  stream->key = key;
  stream->last_used = ++clock_;
  streams_.push_back(std::move(stream));
  return *streams_.back();
}

bool TrialWorkspace::Stream::shaped(
    int want_n, int want_k, const sim::Kernel::Options& want_options) const {
  return n == want_n && k == want_k &&
         same_options(kernel_options, want_options);
}

TrialWorkspace::Stream& TrialWorkspace::prepare(
    std::uint64_t key, const sim::LeBuilder& builder, int n, int k,
    sim::Kernel::Options kernel_options) {
  Stream& stream = entry(key);
  // A new key, a machine stream, or a recycled key with a new configuration
  // (legal but unusual): (re)build in place.
  if (stream.kernel == nullptr || !stream.shaped(n, k, kernel_options)) {
    build(stream, builder, n, k, kernel_options);
  }
  return stream;
}

void TrialWorkspace::build(Stream& stream, const sim::LeBuilder& builder,
                           int n, int k, sim::Kernel::Options kernel_options) {
  ++stream_builds_;
  stream.kernel.reset();
  stream.machine.reset();
  stream.adversary.reset();  // a reshaped stream may mean a new scheduler
  // Installed only once whole, so a throwing build leaves no half-built
  // stream behind for the key's next trial.
  auto kernel = std::make_unique<sim::Kernel>(kernel_options);
  stream.built = builder(*kernel, n);
  stream.outcomes.assign(static_cast<std::size_t>(k), sim::Outcome::kUnknown);
  stream.rngs.clear();
  stream.rngs.reserve(static_cast<std::size_t>(k));
  Stream* slots = &stream;  // stable: streams_ stores unique_ptrs
  for (int pid = 0; pid < k; ++pid) {
    auto rng = std::make_unique<support::PrngSource>(0);
    stream.rngs.push_back(rng.get());
    kernel->add_process(
        [slots, pid](sim::Context& ctx) {
          slots->outcomes[static_cast<std::size_t>(pid)] =
              slots->built.elect(ctx);
        },
        std::move(rng), fiber::acquire_stack(kWorkspaceStackBytes));
  }
  stream.kernel = std::move(kernel);
  stream.n = n;
  stream.k = k;
  stream.kernel_options = kernel_options;
  stream.fresh = true;
}

bool TrialWorkspace::drive_stream(Stream& stream, sim::Adversary& adversary,
                                  std::uint64_t seed) {
  if (!stream.fresh) {
    stream.kernel->rewind();
    if (stream.built.reset) stream.built.reset();
  }
  stream.fresh = false;
  for (int pid = 0; pid < stream.k; ++pid) {
    stream.rngs[static_cast<std::size_t>(pid)]->reseed(
        support::derive_seed(seed, static_cast<std::uint64_t>(pid)));
    stream.outcomes[static_cast<std::size_t>(pid)] = sim::Outcome::kUnknown;
  }

  const bool completed = stream.kernel->run(adversary);
  ++trials_run_;
  return completed;
}

sim::LeRunResult TrialWorkspace::run_on_stream(Stream& stream,
                                               sim::Adversary& adversary,
                                               std::uint64_t seed) {
  const bool completed = drive_stream(stream, adversary, seed);
  return sim::collect_le_result(*stream.kernel, stream.n, stream.k,
                                stream.outcomes,
                                stream.built.declared_registers, completed,
                                stream.built.abortable);
}

sim::Adversary& TrialWorkspace::trial_adversary(
    Stream& stream, const sim::AdversaryFactory& factory,
    std::uint64_t adversary_seed) {
  // Pooled adversary: reseed the stream's scheduler back to
  // freshly-constructed state; allocate only on the first trial (or for
  // bespoke adversaries that cannot reseed).
  if (stream.adversary == nullptr || !stream.adversary->reseed(adversary_seed)) {
    stream.adversary = factory(adversary_seed);
    ++adversary_builds_;
  }
  return *stream.adversary;
}

sim::LeRunResult TrialWorkspace::run_le_once(
    std::uint64_t key, const sim::LeBuilder& builder, int n, int k,
    sim::Adversary& adversary, std::uint64_t seed,
    sim::Kernel::Options kernel_options) {
  RTS_REQUIRE(k >= 1 && k <= n, "need 1 <= k <= n participants");
  Stream& stream = prepare(key, builder, n, k, kernel_options);
  return run_on_stream(stream, adversary, seed);
}

sim::LeRunResult TrialWorkspace::run_le_trial(
    std::uint64_t key, const sim::LeBuilder& builder, int n, int k,
    const sim::AdversaryFactory& adversary_factory, int trial,
    std::uint64_t seed0, sim::Kernel::Options kernel_options) {
  RTS_REQUIRE(k >= 1 && k <= n, "need 1 <= k <= n participants");
  const std::uint64_t seed = sim::trial_seed(seed0, trial);
  Stream& stream = prepare(key, builder, n, k, kernel_options);
  sim::Adversary& adversary = trial_adversary(stream, adversary_factory,
                                              sim::adversary_seed(seed));
  return run_on_stream(stream, adversary, seed);
}

TrialSummary TrialWorkspace::run_le_trial_summary(
    std::uint64_t key, const sim::LeBuilder& builder, int n, int k,
    const sim::AdversaryFactory& factory, int trial, std::uint64_t seed0,
    sim::Kernel::Options kernel_options) {
  RTS_REQUIRE(k >= 1 && k <= n, "need 1 <= k <= n participants");
  const std::uint64_t seed = sim::trial_seed(seed0, trial);
  Stream& stream = entry(key);
  const bool current =
      stream.shaped(n, k, kernel_options) &&
      (stream.machine != nullptr ? stream.seed0 == seed0
                                 : stream.kernel != nullptr);
  if (!current) {
    // The engine choice, made once per stream and before anything of the
    // fiber path is built: the step machines run the trial when the
    // algorithm has one, no RMR model is armed (the machines charge none),
    // and the scheduler is oblivious-class (the engine's kernel-less view
    // refuses adaptive access).  Either engine gives the same bytes.
    std::unique_ptr<sim::Adversary> adversary;
    std::unique_ptr<sim::BatchAlgorithm> machine;
    if (builder.machine && kernel_options.rmr_model == rmr::RmrModel::kNone) {
      adversary = factory(sim::adversary_seed(seed));
      ++adversary_builds_;
      if (adversary->clazz() == sim::AdversaryClass::kOblivious) {
        machine = builder.machine(n, k);
      }
    }
    if (machine != nullptr) {
      ++stream_builds_;
      stream.kernel.reset();
      stream.built = sim::BuiltLe{};
      stream.adversary.reset();
      sim::BatchConfig config;
      config.n = n;
      config.k = k;
      config.lanes = 1;
      config.seed0 = seed0;
      config.step_limit = kernel_options.step_limit;
      // The engine starts from the adversary built above and pools it as a
      // fiber stream does; a rebuild it needs still counts here.
      stream.machine = sim::make_batch_stream(
          std::move(machine),
          [this, factory](std::uint64_t adversary_seed) {
            ++adversary_builds_;
            return factory(adversary_seed);
          },
          config, std::move(adversary));
      stream.n = n;
      stream.k = k;
      stream.kernel_options = kernel_options;
      stream.seed0 = seed0;
    } else {
      build(stream, builder, n, k, kernel_options);
      stream.adversary = std::move(adversary);  // reseeded below
    }
  }
  if (stream.machine != nullptr) {
    TrialSummary summary;
    stream.machine->run_block(trial, 1, &summary);
    ++trials_run_;
    return summary;
  }
  sim::Adversary& adversary =
      trial_adversary(stream, factory, sim::adversary_seed(seed));
  const bool completed = drive_stream(stream, adversary, seed);
  return sim::summarize_le_trial(*stream.kernel, stream.k, stream.outcomes,
                                 stream.built.declared_registers, completed,
                                 stream.built.abortable);
}

TrialSummary TrialWorkspace::run_le_batch_trial(
    std::uint64_t key, const BatchStreamFactory& factory, int lanes,
    int trial, int cell_trials) {
  RTS_REQUIRE(lanes >= 1 && lanes <= sim::kMaxBatchLanes,
              "lanes out of range");
  RTS_REQUIRE(trial >= 0 && trial < cell_trials, "trial out of range");
  BatchSlot* slot = nullptr;
  for (auto& candidate : batch_slots_) {
    if (candidate->key == key) {
      slot = candidate.get();
      break;
    }
  }
  if (slot == nullptr) {
    if (batch_slots_.size() >= options_.max_prepared &&
        !batch_slots_.empty()) {
      std::size_t victim = 0;
      for (std::size_t i = 1; i < batch_slots_.size(); ++i) {
        if (batch_slots_[i]->last_used < batch_slots_[victim]->last_used) {
          victim = i;
        }
      }
      batch_slots_.erase(batch_slots_.begin() +
                         static_cast<std::ptrdiff_t>(victim));
    }
    auto fresh = std::make_unique<BatchSlot>();
    fresh->key = key;
    fresh->lanes = lanes;
    fresh->stream = factory();
    RTS_REQUIRE(fresh->stream != nullptr,
                "batch stream factory returned nullptr (cell is ineligible; "
                "callers must gate on algo::make_batch_stream)");
    batch_slots_.push_back(std::move(fresh));
    slot = batch_slots_.back().get();
  }
  RTS_REQUIRE(slot->lanes == lanes, "batch key reused with different lanes");
  slot->last_used = ++clock_;
  // Blocks are aligned to the trial index, never to the request order, so
  // every access pattern computes the same blocks (bitwise determinism).
  const int base = (trial / lanes) * lanes;
  if (slot->block_base != base) {
    const int count = std::min(lanes, cell_trials - base);
    slot->block.resize(static_cast<std::size_t>(count));
    slot->stream->run_block(base, count, slot->block.data());
    slot->block_base = base;
    ++batch_blocks_run_;
  }
  ++batch_trials_run_;
  return slot->block[static_cast<std::size_t>(trial - base)];
}

}  // namespace rts::exec
