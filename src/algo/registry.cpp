#include "algo/registry.hpp"

#include "algo/attacks.hpp"
#include "algo/batch.hpp"
#include "algo/make_le.hpp"
#include "sim/adversaries.hpp"
#include "support/assert.hpp"

namespace rts::algo {

namespace {

/// abortable-race, the abortable TAS baseline (arXiv:1805.04840 model): an
/// aborted caller returns abort or lose, never wins after the signal, and a
/// solo unaborted caller wins.  It is RatRacePath on an armed context, so
/// the inner election unwinds right after the first op granted once a
/// request is posted.  The request is read again after a normal return: a
/// win that raced it is demoted (the demoted winner silences itself and
/// never promotes anyone else), and without a request the inner outcome
/// passes through unchanged.
class AbortableRatRacePath final : public ILeaderElect<SimPlatform> {
 public:
  AbortableRatRacePath(SimPlatform::Arena arena, int n) : inner_(arena, n) {}

  sim::Outcome elect(sim::Context& ctx) override {
    if (ctx.abort_requested()) return sim::Outcome::kAbort;
    ctx.unwind_on_abort();
    try {
      const sim::Outcome outcome = inner_.elect(ctx);
      return ctx.abort_requested() ? sim::Outcome::kAbort : outcome;
    } catch (const sim::AbortRequested&) {
      return sim::Outcome::kAbort;
    }
  }

  std::size_t declared_registers() const override {
    return inner_.declared_registers();
  }

  void reset_trial_state() override { inner_.reset_trial_state(); }

 private:
  RatRacePath<SimPlatform> inner_;
};

}  // namespace

const std::vector<AlgoInfo>& all_algorithms() {
  static const std::vector<AlgoInfo> kAlgorithms = {
      {AlgorithmId::kLogStarChain, "logstar", "O(log* k)",
       "location-oblivious", exec::kSimAndHw,
       "Thm 2.3: leader election from Figure-1 group elections"},
      {AlgorithmId::kSiftChain, "sift", "O(log log n)", "rw-oblivious",
       exec::kSimAndHw,
       "Sec 2.3: Alistarh-Aspnes sifting chain (non-adaptive)"},
      {AlgorithmId::kSiftCascade, "cascade", "O(log log k)", "rw-oblivious",
       exec::kSimAndHw,
       "Thm 2.4: cascade of doubly-exponentially sized sifting chains"},
      {AlgorithmId::kRatRace, "ratrace", "O(log k)", "adaptive",
       exec::kSimAndHw,
       "Alistarh et al. 2010 baseline; Theta(n^3) registers"},
      {AlgorithmId::kRatRacePath, "ratrace-path", "O(log k)", "adaptive",
       exec::kSimAndHw,
       "Sec 3: RatRace with elimination paths; Theta(n) registers"},
      {AlgorithmId::kCombinedLogStar, "combined-logstar",
       "O(log* k) weak / O(log k) adaptive", "both", exec::kSimAndHw,
       "Cor 4.2: combiner of RatRacePath and the log* chain"},
      {AlgorithmId::kCombinedSift, "combined-sift",
       "O(log log k) weak / O(log k) adaptive", "both", exec::kSimAndHw,
       "Cor 4.2: combiner of RatRacePath and the sifting cascade"},
      {AlgorithmId::kTournament, "tournament", "O(log n)", "adaptive",
       exec::kSimAndHw,
       "Afek-Gafni-Tromp-Vitanyi 1992 tournament tree baseline"},
      {AlgorithmId::kAaSiftRatRace, "aa",
       "O(log log n) weak / O(log n) adaptive", "rw-oblivious",
       exec::kSimAndHw,
       "Alistarh-Aspnes 2011: sifting rounds + RatRace backup (graceful "
       "degradation)"},
      {AlgorithmId::kNativeAtomic, "native-atomic", "O(1)", "adaptive",
       exec::kHwOnly,
       "hardware baseline: one std::atomic exchange (not from registers)"},
      {AlgorithmId::kDivergeHw, "diverge-hw", "unbounded", "n/a",
       exec::kHwOnly,
       "diagnostic: spins shared reads forever; witnesses the hw step-limit "
       "watchdog (never elects)",
       /*diagnostic=*/true},
      {AlgorithmId::kAbortableRace, "abortable-race", "O(log k)", "adaptive",
       exec::kSimOnly,
       "abortable TAS baseline (arXiv:1805.04840 model): RatRacePath with "
       "the caller abort flag polled between shared-memory ops; aborted "
       "callers return abort-or-lose",
       /*diagnostic=*/false, /*abortable=*/true},
  };
  return kAlgorithms;
}

const AlgoInfo& info(AlgorithmId id) {
  for (const AlgoInfo& algo : all_algorithms()) {
    if (algo.id == id) return algo;
  }
  RTS_ASSERT_MSG(false, "unknown algorithm id");
  return all_algorithms().front();
}

std::optional<AlgorithmId> parse_algorithm(std::string_view name) {
  for (const AlgoInfo& algo : all_algorithms()) {
    if (name == algo.name) return algo.id;
  }
  return std::nullopt;
}

bool supports(AlgorithmId id, exec::Backend backend) {
  return (info(id).backends & exec::backend_bit(backend)) != 0;
}

const std::vector<AdversaryInfo>& all_adversaries() {
  static const std::vector<AdversaryInfo> kAdversaries = {
      {AdversaryId::kUniformRandom, "random", false, false,
       "uniformly random among runnable processes; oblivious, so a valid "
       "member of every adversary class"},
      {AdversaryId::kRoundRobin, "roundrobin", false, false,
       "cycles through pids; maximal benign interleaving"},
      {AdversaryId::kSequential, "sequential", false, false,
       "runs one process to completion at a time; zero overlap"},
      {AdversaryId::kCrashAfterOps, "crash", true, false,
       "random scheduling that crashes each process once it exhausts a "
       "seeded per-process op budget (always sparing a survivor)"},
      {AdversaryId::kAbortAfterOps, "abort", false, false,
       "random scheduling that sends each process one abort request once it "
       "exhausts a seeded per-process op budget (abortable algorithms then "
       "return abort-or-lose)",
       sim::AdversaryClass::kOblivious, /*aborts=*/true},
      {AdversaryId::kGeNeutralizer, "attack-ge", false, false,
       "adaptive group-election neutralizer (Section 4 motivation): forces "
       "Theta(k) steps on the weak-adversary chains; deterministic, so its "
       "worst cases record and minimize like any schedule",
       sim::AdversaryClass::kAdaptive},
      {AdversaryId::kReplay, "replay", true, true,
       "re-drives a recorded schedule (grants, crashes, aborts) bit for "
       "bit; constructed from .rtst traces via rts_bench --replay, never "
       "from a seed",
       sim::AdversaryClass::kOblivious, /*aborts=*/true},
  };
  return kAdversaries;
}

const AdversaryInfo& info(AdversaryId id) {
  for (const AdversaryInfo& adversary : all_adversaries()) {
    if (adversary.id == id) return adversary;
  }
  RTS_ASSERT_MSG(false, "unknown adversary id");
  return all_adversaries().front();
}

std::optional<AdversaryId> parse_adversary(std::string_view name) {
  for (const AdversaryInfo& adversary : all_adversaries()) {
    if (name == adversary.name) return adversary.id;
  }
  return std::nullopt;
}

sim::AdversaryFactory adversary_factory(AdversaryId id) {
  switch (id) {
    case AdversaryId::kUniformRandom:
      return [](std::uint64_t seed) -> std::unique_ptr<sim::Adversary> {
        return std::make_unique<sim::UniformRandomAdversary>(seed);
      };
    case AdversaryId::kRoundRobin:
      return [](std::uint64_t) -> std::unique_ptr<sim::Adversary> {
        return std::make_unique<sim::RoundRobinAdversary>();
      };
    case AdversaryId::kSequential:
      return [](std::uint64_t) -> std::unique_ptr<sim::Adversary> {
        return std::make_unique<sim::SequentialAdversary>();
      };
    case AdversaryId::kCrashAfterOps:
      return [](std::uint64_t seed) -> std::unique_ptr<sim::Adversary> {
        return std::make_unique<sim::CrashAfterOpsAdversary>(seed);
      };
    case AdversaryId::kAbortAfterOps:
      return [](std::uint64_t seed) -> std::unique_ptr<sim::Adversary> {
        return std::make_unique<sim::AbortAfterOpsAdversary>(seed);
      };
    case AdversaryId::kGeNeutralizer:
      return [](std::uint64_t) -> std::unique_ptr<sim::Adversary> {
        return make_neutralizer_adversary();
      };
    case AdversaryId::kReplay:
      // No seed can reconstruct a recorded schedule; replay adversaries are
      // built from a CellTrace by the campaign executor's --replay path and
      // the conformance harness.
      RTS_REQUIRE(false,
                  "the replay adversary is constructed from a recorded "
                  "trace (rts_bench --replay DIR), not from a seed");
  }
  RTS_ASSERT_MSG(false, "unknown adversary id");
  return nullptr;
}

std::unique_ptr<ILeaderElect<SimPlatform>> make_sim_le(AlgorithmId id,
                                                       SimPlatform::Arena arena,
                                                       int n) {
  if (!supports(id, exec::Backend::kSim)) return nullptr;  // hw-only
  if (id == AlgorithmId::kAbortableRace) {
    return std::make_unique<AbortableRatRacePath>(arena, n);
  }
  return make_le<SimPlatform>(id, arena, n);
}

sim::LeBuilder sim_builder(AlgorithmId id) {
  RTS_REQUIRE(supports(id, exec::Backend::kSim),
              "algorithm has no simulator backend");
  sim::LeBuilder builder = [id](sim::Kernel& kernel, int n) -> sim::BuiltLe {
    SimPlatform::Arena arena(kernel.memory());
    std::shared_ptr<ILeaderElect<SimPlatform>> le =
        make_sim_le(id, arena, n);
    sim::BuiltLe built;
    built.keepalive = le;
    built.declared_registers = le->declared_registers();
    built.abortable = info(id).abortable;
    built.elect = [le](sim::Context& ctx) { return le->elect(ctx); };
    built.reset = [le] { le->reset_trial_state(); };
    return built;
  };
  if (batch_supported(id)) {
    builder.machine = [id](int n, int k) { return make_machine(id, n, k); };
  }
  return builder;
}

}  // namespace rts::algo
