// Central catalogue of the leader-election algorithms in this library, with
// type-erased factories for the simulator harness and per-backend capability
// flags for the hardware harness.  Benches, tests, the campaign engine, and
// the example binaries all enumerate algorithms through here; there is one
// AlgorithmId namespace for both execution backends (see exec/backend.hpp,
// hw/harness.hpp).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algo/platform.hpp"
#include "algo/sim_platform.hpp"
#include "exec/backend.hpp"
#include "sim/adversary.hpp"
#include "sim/runner.hpp"

namespace rts::algo {

enum class AlgorithmId {
  kLogStarChain,    // Thm 2.3: Fig-1 GE chain, O(log* k) vs location-oblivious
  kSiftChain,       // Sec 2.3: AA sifting chain, O(log log n) vs R/W-oblivious
  kSiftCascade,     // Thm 2.4: adaptive O(log log k) vs R/W-oblivious
  kRatRace,         // baseline: original RatRace, O(log k) adaptive, Theta(n^3)
  kRatRacePath,     // Sec 3: elimination-path RatRace, O(log k), Theta(n)
  kCombinedLogStar, // Cor 4.2: combiner(RatRacePath, log* chain)
  kCombinedSift,    // Cor 4.2: combiner(RatRacePath, sift cascade)
  kTournament,      // AGTV 1992 baseline, O(log n)
  kAaSiftRatRace,   // Alistarh-Aspnes 2011: sifting + RatRace backup
  kNativeAtomic,    // hw-only baseline: one std::atomic exchange
  kDivergeHw,       // hw-only diagnostic: never elects (watchdog witness)
  kAbortableRace,   // abortable TAS baseline (arXiv:1805.04840 model)
};

struct AlgoInfo {
  AlgorithmId id;
  const char* name;         // stable identifier, e.g. "logstar"
  const char* complexity;   // expected step complexity, as claimed
  const char* adversary;    // adversary model the bound is proved for
  exec::BackendMask backends;  // which backends can instantiate it
  const char* description;
  /// Diagnostic entries (e.g. the diverging watchdog witness) are runnable
  /// by name but skipped by preset enumeration and catalogue-wide stress
  /// loops -- they intentionally violate liveness.
  bool diagnostic = false;
  /// Honours adversary abort requests (may return sim::Outcome::kAbort);
  /// gates the abort-validity checks in sim::collect_le_result.
  bool abortable = false;
};

const std::vector<AlgoInfo>& all_algorithms();
const AlgoInfo& info(AlgorithmId id);
std::optional<AlgorithmId> parse_algorithm(std::string_view name);

/// Whether `id` can be instantiated on `backend` (the catalogue's capability
/// flag; the factories construct exactly this set).
bool supports(AlgorithmId id, exec::Backend backend);

/// The schedulers usable as trial adversaries, catalogued so the campaign
/// engine can expand adversary grids by name.  This includes the adaptive
/// group-election neutralizer (algo/attacks.hpp) through its Adversary
/// adapter: it decodes algorithm phases white-box, but it satisfies the
/// black-box scheduling contract, so campaigns can record, replay, and
/// minimize its worst-case schedules like any other scheduler's.
enum class AdversaryId {
  kUniformRandom,  // oblivious: uniformly random among runnable processes
  kRoundRobin,     // oblivious: cycles through pids
  kSequential,     // oblivious: one process at a time, in pid order
  kCrashAfterOps,  // failure injection: crashes processes after an op budget
  kAbortAfterOps,  // abort injection: abort requests after an op budget
  kGeNeutralizer,  // adaptive: the Section-4 group-election neutralizer attack
  kReplay,         // fixed-schedule replay of a recorded trace (sim/trace.hpp)
};

struct AdversaryInfo {
  AdversaryId id;
  const char* name;  // stable identifier, e.g. "random"
  bool crashes;      // whether this scheduler may crash processes
  /// Constructible only from a recorded schedule trace, never from a seed:
  /// adversary_factory() refuses it, campaign grids reject it (replay runs
  /// flow through `rts_bench --replay DIR` / exec/conformance.hpp instead),
  /// and catalogue-wide stress loops skip it.
  bool from_trace = false;
  const char* description;
  /// The literature's adversary hierarchy slot this scheduler occupies --
  /// what it is allowed to observe when deciding the next action (see
  /// sim/adversary.hpp); shown by `rts_bench --list`.
  sim::AdversaryClass clazz = sim::AdversaryClass::kOblivious;
  /// Whether this scheduler may issue abort requests.
  bool aborts = false;
};

const std::vector<AdversaryInfo>& all_adversaries();
const AdversaryInfo& info(AdversaryId id);
std::optional<AdversaryId> parse_adversary(std::string_view name);

/// Seeded factory for a catalogued adversary (seed is ignored by the
/// deterministic schedulers).
sim::AdversaryFactory adversary_factory(AdversaryId id);

/// Builds the algorithm as a leader-election object for up to n processes
/// inside the given simulator kernel, and carries its batch machine
/// (algo/batch.hpp) for logstar, sift, cascade, ratrace-path,
/// combined-logstar and combined-sift.  Requires supports(id, Backend::kSim).
sim::LeBuilder sim_builder(AlgorithmId id);

/// Constructs the algorithm directly (shared by sim_builder and by code that
/// needs the concrete interface, e.g. the TAS adapter and the lower-bound
/// drivers).  Returns nullptr for algorithms without a simulator factory
/// (the hw-only native baseline).
std::unique_ptr<ILeaderElect<SimPlatform>> make_sim_le(AlgorithmId id,
                                                       SimPlatform::Arena arena,
                                                       int n);

}  // namespace rts::algo
