// Batch machines for the eligible algorithm catalogue.
//
// Each supported algorithm has an explicit state-machine twin of its
// fiber-based implementation (same shared-memory op sequence, same per-pid
// PRNG draw order), so sim::BatchStream can run its trials without fibers
// and still match the scalar path's TrialSummary byte for byte.  A cell is
// eligible when both sides qualify:
//
//   * algorithm: a batch machine exists for logstar, sift, cascade,
//     ratrace-path, combined-logstar, and combined-sift.  The remaining
//     catalogue entries (original RatRace's backup grid, tournament, aa,
//     abortable-race) keep the scalar kernel.
//   * adversary: the catalogue lists it as seedable (not from_trace) and
//     oblivious-class.  The engine drives that very sim::Adversary, and an
//     oblivious view never shows a pending op, so it can never ask for
//     something the machines lack.  random, roundrobin, sequential, crash
//     and abort qualify; the adaptive attack-ge and trace replay do not.
//
// sim_builder hands each machine to exec::TrialWorkspace through
// sim::LeBuilder::machine, and the workspace's run_le_trial_summary -- the
// campaign executor's sim path -- runs every eligible trial on it.
// make_batch_stream() builds the longer-block streams of
// TrialWorkspace::run_le_batch_trial and returns nullptr for any ineligible
// pair.
#pragma once

#include <cstdint>
#include <memory>

#include "algo/registry.hpp"
#include "sim/batch.hpp"

namespace rts::algo {

/// The batch machine of `id` for `n` processes with `k` participants, or
/// nullptr when `id` has none.  sim_builder fills sim::LeBuilder::machine
/// with it.
std::unique_ptr<sim::BatchAlgorithm> make_machine(AlgorithmId id, int n,
                                                  int k);

/// Whether `id` has a batch machine.
bool batch_supported(AlgorithmId id);

/// Whether the engine can drive `id`: a seedable, oblivious-class
/// catalogue adversary.
bool batch_schedulable(AdversaryId id);

/// Builds a pooled batch stream for one campaign cell, or nullptr when the
/// (algorithm, adversary) pair is ineligible.  Each run_block call computes
/// up to `lanes` trials, one after another; `lanes` is clamped to
/// [1, sim::kMaxBatchLanes].
std::unique_ptr<sim::BatchStream> make_batch_stream(
    AlgorithmId algorithm, AdversaryId adversary, int n, int k, int lanes,
    std::uint64_t seed0, std::uint64_t step_limit);

}  // namespace rts::algo
