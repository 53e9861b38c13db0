#include "algo/attacks.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "algo/stages.hpp"
#include "sim/kernel.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace rts::algo {

namespace {

bool is_ge_kind(stage::Kind kind) {
  return kind == stage::kGeFlagRead || kind == stage::kGeFlagWrite ||
         kind == stage::kGeSlotWrite || kind == stage::kGeSlotRead ||
         kind == stage::kSift;
}

/// "Behind stage j": the process might still arrive at (and need to read the
/// flag / sift register of) group election j.
bool behind_stage(std::uint64_t tag, std::uint32_t j) {
  const stage::Kind kind = stage::kind_of(tag);
  const std::uint32_t index = stage::index_of(tag);
  if (is_ge_kind(kind) && index < j) return true;
  if (kind == stage::kSplitter && index < j) return true;
  return false;
}

class GroupElectionNeutralizer {
 public:
  /// Binds the decision procedure to the kernel it schedules.  Rebinding is
  /// cheap and idempotent; the round-robin cursor survives it (it is
  /// per-trial state, cleared by reset()).
  void bind(const sim::Kernel& kernel) { kernel_ = &kernel; }

  /// Returns to the freshly-constructed state (pooled-adversary reseed).
  void reset() { rr_next_ = 0; }

  int pick() {
    const std::vector<int>& runnable = kernel_->runnable_set().pids();
    RTS_ASSERT(!runnable.empty());

    // Rule 1: flush slot reads (the "am I elected" check) immediately.
    for (const int pid : runnable) {
      const auto kind = stage::kind_of(kernel_->stage(pid));
      if (kind == stage::kGeSlotRead) return pid;
      // A pending sift *read* is equally urgent: it must execute before any
      // sift write of the same stage.  Writes are held by rule 4 anyway, so
      // granting reads eagerly is safe.
      if (kind == stage::kSift &&
          kernel_->pending(pid).kind == sim::OpKind::kRead) {
        return pid;
      }
    }
    // Rule 2: flag reads are always safe and keep the cohort together.
    for (const int pid : runnable) {
      if (stage::kind_of(kernel_->stage(pid)) == stage::kGeFlagRead) {
        return pid;
      }
    }
    // Rule 3: flag writes, smallest stage first, only once nobody is behind.
    int best_flag_write = -1;
    std::uint32_t best_flag_index = std::numeric_limits<std::uint32_t>::max();
    for (const int pid : runnable) {
      const auto tag = kernel_->stage(pid);
      if (stage::kind_of(tag) != stage::kGeFlagWrite) continue;
      const auto index = stage::index_of(tag);
      if (index < best_flag_index && nobody_behind(index)) {
        best_flag_index = index;
        best_flag_write = pid;
      }
    }
    if (best_flag_write >= 0) return best_flag_write;

    // Rule 4: slot writes / sift writes, ascending (stage, slot), held until
    // the stage's flag traffic has drained and nobody is behind.
    int best_slot_write = -1;
    std::uint64_t best_key = std::numeric_limits<std::uint64_t>::max();
    for (const int pid : runnable) {
      const auto tag = kernel_->stage(pid);
      const auto kind = stage::kind_of(tag);
      const bool is_sift_write =
          kind == stage::kSift &&
          kernel_->pending(pid).kind == sim::OpKind::kWrite;
      if (kind != stage::kGeSlotWrite && !is_sift_write) continue;
      const auto index = stage::index_of(tag);
      if (!nobody_behind(index) || flag_traffic_pending(index)) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(index) << 16) | stage::detail_of(tag);
      if (key < best_key) {
        best_key = key;
        best_slot_write = pid;
      }
    }
    if (best_slot_write >= 0) return best_slot_write;

    // Rule 5: everything else round-robin.
    for (int attempts = 0; attempts < kernel_->num_processes(); ++attempts) {
      const int pid = rr_next_;
      rr_next_ = (rr_next_ + 1) % kernel_->num_processes();
      if (!kernel_->runnable(pid)) continue;
      const auto kind = stage::kind_of(kernel_->stage(pid));
      if (kind == stage::kGeFlagWrite || kind == stage::kGeSlotWrite ||
          kind == stage::kSift) {
        continue;  // held by rules 3/4
      }
      return pid;
    }
    // Everyone runnable is held: release the smallest held stage to avoid
    // deadlock (can only happen transiently across cascade levels).
    int fallback = runnable.front();
    std::uint32_t fallback_index = std::numeric_limits<std::uint32_t>::max();
    for (const int pid : runnable) {
      const auto index = stage::index_of(kernel_->stage(pid));
      if (index < fallback_index) {
        fallback_index = index;
        fallback = pid;
      }
    }
    return fallback;
  }

 private:
  bool nobody_behind(std::uint32_t j) const {
    for (int pid = 0; pid < kernel_->num_processes(); ++pid) {
      if (!kernel_->runnable(pid)) continue;
      if (behind_stage(kernel_->stage(pid), j)) return false;
    }
    return true;
  }

  bool flag_traffic_pending(std::uint32_t j) const {
    for (int pid = 0; pid < kernel_->num_processes(); ++pid) {
      if (!kernel_->runnable(pid)) continue;
      const auto tag = kernel_->stage(pid);
      const auto kind = stage::kind_of(tag);
      if ((kind == stage::kGeFlagRead || kind == stage::kGeFlagWrite) &&
          stage::index_of(tag) == j) {
        return true;
      }
    }
    return false;
  }

  const sim::Kernel* kernel_ = nullptr;
  int rr_next_ = 0;
};

/// Adversary-interface adapter over the neutralizer: one decision procedure
/// shared with run_attack(), reachable through the black-box scheduling API
/// so campaigns can record and replay attack schedules.
class NeutralizerAdversary final : public sim::Adversary {
 public:
  sim::AdversaryClass clazz() const override {
    return sim::AdversaryClass::kAdaptive;
  }

  sim::Action next(const sim::KernelView& view) override {
    // The kernel outlives the trial, but pooled streams rewind it between
    // trials; rebinding every decision keeps the adapter stateless about
    // kernel identity.
    neutralizer_.bind(view.adaptive_full_access());
    return sim::Action::step(neutralizer_.pick());
  }

  bool reseed(std::uint64_t) override {
    neutralizer_.reset();
    return true;
  }

 private:
  GroupElectionNeutralizer neutralizer_;
};

}  // namespace

AttackResult run_attack(AlgorithmId algorithm, AttackKind kind, int k,
                        std::uint64_t seed) {
  RTS_REQUIRE(k >= 1, "attack needs k >= 1");
  AttackResult result;
  result.k = k;

  sim::Kernel::Options options;
  options.step_limit =
      200'000 + 400ULL * static_cast<std::uint64_t>(k) * k;
  sim::Kernel kernel(options);
  SimPlatform::Arena arena(kernel.memory());
  std::shared_ptr<ILeaderElect<SimPlatform>> le =
      make_sim_le(algorithm, arena, k);

  std::vector<sim::Outcome> outcomes(static_cast<std::size_t>(k),
                                     sim::Outcome::kUnknown);
  for (int pid = 0; pid < k; ++pid) {
    kernel.add_process(
        [le, &outcomes, pid](sim::Context& ctx) {
          outcomes[static_cast<std::size_t>(pid)] = le->elect(ctx);
        },
        std::make_unique<support::PrngSource>(
            support::derive_seed(seed, static_cast<std::uint64_t>(pid))));
  }
  kernel.start();

  GroupElectionNeutralizer neutralizer;
  neutralizer.bind(kernel);
  int rr = 0;
  while (!kernel.all_done()) {
    if (kernel.total_steps() >= options.step_limit) {
      result.completed = false;
      break;
    }
    int pid = -1;
    if (kind == AttackKind::kGroupElectionNeutralizer) {
      pid = neutralizer.pick();
    } else {
      for (int attempts = 0; attempts < k; ++attempts) {
        const int candidate = rr;
        rr = (rr + 1) % k;
        if (kernel.runnable(candidate)) {
          pid = candidate;
          break;
        }
      }
    }
    RTS_ASSERT(pid >= 0);
    kernel.grant(pid);
  }

  for (int pid = 0; pid < k; ++pid) {
    result.max_steps = std::max(result.max_steps, kernel.steps(pid));
    if (outcomes[static_cast<std::size_t>(pid)] == sim::Outcome::kWin) {
      ++result.winners;
    }
  }
  result.total_steps = kernel.total_steps();
  if (result.winners > 1) {
    result.violations.push_back("safety: more than one winner under attack");
  }
  if (result.completed && result.winners != 1) {
    result.violations.push_back("liveness: attack run ended without winner");
  }
  return result;
}

std::unique_ptr<sim::Adversary> make_neutralizer_adversary() {
  return std::make_unique<NeutralizerAdversary>();
}

}  // namespace rts::algo
