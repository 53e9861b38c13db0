// Explicit state-machine twins of the fiber-based algorithms, for the
// step-machine trial engine (sim/batch.hpp).
//
// Invariance discipline: every machine reproduces its scalar twin's
// shared-memory op sequence and per-pid PRNG draw order EXACTLY -- the
// announce/grant protocol below mirrors sim::Context::sync_op (draws happen
// in the local code between grants, never at grant time), and the register
// layout is a fixed bijection onto the scalar arena (summaries never depend
// on register ids, only on values read back and on how many distinct
// registers were touched).  tests/test_batch_invariance.cpp byte-compares
// the two paths across the eligible catalogue.
#include "algo/batch.hpp"

#include <algorithm>
#include <vector>

#include "algo/chain.hpp"
#include "algo/sim_platform.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace rts::algo {

namespace {

using sim::BatchAction;
using sim::Outcome;

// ---------------------------------------------------------------------------
// Leaf primitives.
//
// Each primitive (splitter, randomized splitter, 2-process LE, Figure-1
// group election, sifting group election) is a tiny program counter over a
// shared LeafState.  A Sub is either the primitive's next shared-memory
// announcement or its completion value.

struct Sub {
  enum class K : std::uint8_t { kRead, kWrite, kDone };
  K k = K::kRead;
  std::uint32_t reg = 0;
  std::uint64_t val = 0;  // written value (kWrite) or return value (kDone)

  static Sub read(std::uint32_t reg) { return Sub{K::kRead, reg, 0}; }
  static Sub write(std::uint32_t reg, std::uint64_t val) {
    return Sub{K::kWrite, reg, val};
  }
  static Sub done(std::uint64_t val) { return Sub{K::kDone, 0, val}; }
};

/// Per-pid scratch for whichever primitive is active; fields are reused
/// across primitive kinds (see each primitive's comments).
struct LeafState {
  std::uint8_t pc = 0;
  std::uint8_t side = 0;   // le2: own side; sift: do_write
  std::uint8_t v = 0;      // le2: proposed value
  std::uint8_t agree = 0;  // le2: phase-A agreement bit
  std::uint64_t r = 0;     // le2: round; fig1: chosen level x
};

// Split results, encoded for Sub::done.
constexpr std::uint64_t kLeft = 0;
constexpr std::uint64_t kRight = 1;
constexpr std::uint64_t kStop = 2;

// --- Deterministic splitter (algo/splitter.hpp) over regs [base, base+1].

Sub split_begin(LeafState& st, std::uint32_t base, int pid) {
  st.pc = 0;
  return Sub::write(base, static_cast<std::uint64_t>(pid) + 1);
}

Sub split_on(LeafState& st, std::uint32_t base, int pid,
             std::uint64_t result) {
  switch (st.pc) {
    case 0:  // wrote X := pid+1
      st.pc = 1;
      return Sub::read(base + 1);
    case 1:  // read Y
      if (result != 0) return Sub::done(kLeft);
      st.pc = 2;
      return Sub::write(base + 1, 1);
    case 2:  // wrote Y := 1
      st.pc = 3;
      return Sub::read(base);
    default:  // read X
      return Sub::done(
          result == static_cast<std::uint64_t>(pid) + 1 ? kStop : kRight);
  }
}

// --- Randomized splitter: non-stop exits flip a coin for the direction.

Sub rsplit_on(LeafState& st, std::uint32_t base, int pid,
              support::PrngSource& rng, std::uint64_t result) {
  switch (st.pc) {
    case 0:
      st.pc = 1;
      return Sub::read(base + 1);
    case 1:
      if (result != 0) return Sub::done(rng.flip() == 0 ? kLeft : kRight);
      st.pc = 2;
      return Sub::write(base + 1, 1);
    case 2:
      st.pc = 3;
      return Sub::read(base);
    default:
      if (result == static_cast<std::uint64_t>(pid) + 1) {
        return Sub::done(kStop);
      }
      return Sub::done(rng.flip() == 0 ? kLeft : kRight);
  }
}

// --- 2-process LE (algo/le2.hpp): round-stamped commit-adopt over regs
// [base+side (own), base+1-side (other)].  Done value is a sim::Outcome.

constexpr std::uint64_t kPhaseA = 0;
constexpr std::uint64_t kPhaseB = 1;

std::uint64_t le2_pack(std::uint64_t round, std::uint64_t phase,
                       std::uint64_t value, std::uint64_t agree) {
  return (round << 3) | (phase << 2) | (value << 1) | agree;
}

Sub le2_begin(LeafState& st, std::uint32_t base, int side) {
  st.side = static_cast<std::uint8_t>(side);
  st.r = 1;
  st.v = static_cast<std::uint8_t>(side);  // propose myself
  st.pc = 1;
  return Sub::write(base + static_cast<std::uint32_t>(side),
                    le2_pack(1, kPhaseA, static_cast<std::uint64_t>(side), 0));
}

Sub le2_on(LeafState& st, std::uint32_t base, support::PrngSource& rng,
           std::uint64_t result) {
  const std::uint32_t own = base + st.side;
  const std::uint32_t other = base + 1 - st.side;
  const std::uint64_t o_round = result >> 3;
  const std::uint64_t o_phase = (result >> 2) & 1;
  const std::uint64_t o_value = (result >> 1) & 1;
  const std::uint64_t o_agree = result & 1;
  switch (st.pc) {
    case 1:  // wrote phase A
      st.pc = 2;
      return Sub::read(other);
    case 2:  // read other after phase A
      if (o_round > st.r) {  // behind: adopt and re-run their round
        st.v = static_cast<std::uint8_t>(o_value);
        st.r = o_round;
        st.pc = 1;
        return Sub::write(own, le2_pack(st.r, kPhaseA, st.v, 0));
      }
      st.agree = (o_round < st.r || o_value == st.v) ? 1 : 0;
      st.pc = 3;
      return Sub::write(own, le2_pack(st.r, kPhaseB, st.v, st.agree));
    case 3:  // wrote phase B
      st.pc = 4;
      return Sub::read(other);
    default:  // read other after phase B
      if (o_round > st.r) {
        st.v = static_cast<std::uint8_t>(o_value);
        st.r = o_round;
        st.pc = 1;
        return Sub::write(own, le2_pack(st.r, kPhaseA, st.v, 0));
      }
      if (o_round < st.r || o_value == st.v) {
        return Sub::done(static_cast<std::uint64_t>(
            st.v == st.side ? Outcome::kWin : Outcome::kLose));
      }
      if (o_phase == kPhaseB && o_agree != 0) {
        st.v = static_cast<std::uint8_t>(o_value);  // other may commit: adopt
      } else {
        st.v = static_cast<std::uint8_t>(rng.flip());  // conciliate
      }
      ++st.r;
      st.pc = 1;
      return Sub::write(own, le2_pack(st.r, kPhaseA, st.v, 0));
  }
}

// --- Figure-1 group election over [base (flag), base+1 .. base+1+ell].
// Done value is elected (0/1).

Sub fig1_begin(LeafState& st, std::uint32_t base) {
  st.pc = 0;
  return Sub::read(base);
}

Sub fig1_on(LeafState& st, std::uint32_t base, int ell,
            support::PrngSource& rng, std::uint64_t result) {
  switch (st.pc) {
    case 0:  // read flag
      if (result == 1) return Sub::done(0);
      st.pc = 1;
      return Sub::write(base, 1);
    case 1:  // wrote flag; the random level is drawn here, after the grant
      st.r = rng.geometric_trunc(static_cast<std::uint64_t>(ell));
      st.pc = 2;
      return Sub::write(base + static_cast<std::uint32_t>(st.r), 1);
    case 2:  // wrote R[x]
      st.pc = 3;
      return Sub::read(base + 1 + static_cast<std::uint32_t>(st.r));
    default:  // read R[x+1]
      return Sub::done(result == 0 ? 1 : 0);
  }
}

// --- Sifting group election over [base]: the read-or-write coin is drawn
// before announcing the single op.  Done value is elected (0/1).

Sub sift_begin(LeafState& st, std::uint32_t base, std::uint64_t threshold,
               support::PrngSource& rng) {
  const bool do_write = rng.draw(SiftGroupElect<SimPlatform>::kResolution) <
                        threshold;
  st.side = do_write ? 1 : 0;
  if (do_write) return Sub::write(base, 1);
  return Sub::read(base);
}

Sub sift_on(const LeafState& st, std::uint64_t result) {
  if (st.side != 0) return Sub::done(1);  // writers are always elected
  return Sub::done(result == 0 ? 1 : 0);
}

std::uint64_t sift_threshold(double write_prob) {
  // Exactly SiftGroupElect's quantization.
  auto threshold = static_cast<std::uint64_t>(
      write_prob *
      static_cast<double>(SiftGroupElect<SimPlatform>::kResolution));
  if (threshold == 0) threshold = 1;
  return threshold;
}

// ---------------------------------------------------------------------------
// Chain core: GeChainLe's stage walk + climb as a machine, shared by the
// standalone chains, the cascade's levels, and (via those) the combiners.

// ChainOutcome, encoded for Sub::done.
constexpr std::uint64_t kChainWin = 0;
constexpr std::uint64_t kChainLose = 1;
constexpr std::uint64_t kChainForward = 2;

struct GeSpec {
  enum class Kind : std::uint8_t { kFig1, kSift } kind = Kind::kFig1;
  int ell = 0;   // fig1: truncated-geometric ceiling
  int live = 0;  // fig1: live prefix; later stages are dummies
  std::vector<std::uint64_t> thresholds;  // sift: per-stage write thresholds
};

class ChainCore {
 public:
  /// Lays the chain out at [reg_base, reg_base + num_registers()):
  /// per stage, the GE slots (if any), then splitter X/Y, then LE2 R0/R1.
  ChainCore(int k, std::uint32_t reg_base, int length, GeSpec ge,
            int participation)
      : ge_(std::move(ge)), participation_(participation) {
    RTS_ASSERT(length >= 1 && participation >= 1 && participation <= length);
    ge_base_.reserve(static_cast<std::size_t>(length));
    sp_base_.reserve(static_cast<std::size_t>(length));
    le_base_.reserve(static_cast<std::size_t>(length));
    std::uint32_t cursor = reg_base;
    for (int i = 0; i < length; ++i) {
      const std::size_t ge_regs = stage_ge_registers(i);
      ge_base_.push_back(ge_regs != 0 ? cursor : kNoGe);
      cursor += static_cast<std::uint32_t>(ge_regs);
      ge_declared_ += ge_regs;
      sp_base_.push_back(cursor);
      cursor += 2;
      le_base_.push_back(cursor);
      cursor += 2;
    }
    reg_end_ = cursor;
    st_.resize(static_cast<std::size_t>(k));
  }

  std::uint32_t reg_end() const { return reg_end_; }

  std::size_t declared_registers() const {
    return ge_declared_ + ge_base_.size() * 4;
  }

  Sub start(int pid, support::PrngSource& rng) {
    PidState& s = st_[static_cast<std::size_t>(pid)];
    s.i = 0;
    return enter_stage(s, pid, rng);
  }

  Sub on(int pid, support::PrngSource& rng, std::uint64_t result) {
    PidState& s = st_[static_cast<std::size_t>(pid)];
    switch (s.phase) {
      case Phase::kGe: {
        const Sub sub =
            ge_.kind == GeSpec::Kind::kFig1
                ? fig1_on(s.leaf, ge_base_[static_cast<std::size_t>(s.i)],
                          ge_.ell, rng, result)
                : sift_on(s.leaf, result);
        if (sub.k != Sub::K::kDone) return sub;
        if (sub.val == 0) return Sub::done(kChainLose);  // not elected
        s.phase = Phase::kSplit;
        return split_begin(s.leaf, sp_base_[static_cast<std::size_t>(s.i)],
                           pid);
      }
      case Phase::kSplit: {
        const Sub sub = split_on(
            s.leaf, sp_base_[static_cast<std::size_t>(s.i)], pid, result);
        if (sub.k != Sub::K::kDone) return sub;
        switch (sub.val) {
          case kLeft:
            return Sub::done(kChainLose);
          case kRight:
            ++s.i;
            return enter_stage(s, pid, rng);
          default:  // kStop: climb from stage i
            s.phase = Phase::kClimb;
            s.j = s.i;
            return le2_begin(s.leaf,
                             le_base_[static_cast<std::size_t>(s.i)], 0);
        }
      }
      default: {  // Phase::kClimb
        const Sub sub = le2_on(
            s.leaf, le_base_[static_cast<std::size_t>(s.j)], rng, result);
        if (sub.k != Sub::K::kDone) return sub;
        if (static_cast<Outcome>(sub.val) == Outcome::kLose) {
          return Sub::done(kChainLose);
        }
        if (s.j == 0) return Sub::done(kChainWin);
        --s.j;  // descend as side 1 of every LE below the stop
        return le2_begin(s.leaf, le_base_[static_cast<std::size_t>(s.j)], 1);
      }
    }
  }

 private:
  enum class Phase : std::uint8_t { kGe, kSplit, kClimb };

  struct PidState {
    Phase phase = Phase::kGe;
    std::int32_t i = 0;  // current stage
    std::int32_t j = 0;  // climb position
    LeafState leaf;
  };

  static constexpr std::uint32_t kNoGe = 0xffffffffu;

  std::size_t stage_ge_registers(int i) const {
    if (ge_.kind == GeSpec::Kind::kFig1) {
      return i < ge_.live ? static_cast<std::size_t>(ge_.ell) + 2 : 0;
    }
    return i < static_cast<int>(ge_.thresholds.size()) ? 1 : 0;
  }

  Sub enter_stage(PidState& s, int pid, support::PrngSource& rng) {
    if (s.i >= participation_) return Sub::done(kChainForward);
    const auto idx = static_cast<std::size_t>(s.i);
    if (ge_base_[idx] != kNoGe) {
      s.phase = Phase::kGe;
      if (ge_.kind == GeSpec::Kind::kFig1) {
        return fig1_begin(s.leaf, ge_base_[idx]);
      }
      return sift_begin(s.leaf, ge_base_[idx], ge_.thresholds[idx], rng);
    }
    // Dummy group election: everyone elected, zero shared steps.
    s.phase = Phase::kSplit;
    return split_begin(s.leaf, sp_base_[idx], pid);
  }

  GeSpec ge_;
  int participation_;
  std::vector<std::uint32_t> ge_base_;  // kNoGe for dummy stages
  std::vector<std::uint32_t> sp_base_;
  std::vector<std::uint32_t> le_base_;
  std::uint32_t reg_end_ = 0;
  std::size_t ge_declared_ = 0;
  std::vector<PidState> st_;
};

GeSpec fig1_spec(int n) {
  GeSpec spec;
  spec.kind = GeSpec::Kind::kFig1;
  spec.ell = std::max(
      1, support::log2_ceil(static_cast<std::uint64_t>(std::max(2, n))));
  spec.live = default_live_prefix(n);
  return spec;
}

GeSpec sift_spec(int n) {
  GeSpec spec;
  spec.kind = GeSpec::Kind::kSift;
  for (const double p : sift_schedule(n)) {
    spec.thresholds.push_back(sift_threshold(p));
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Standalone chains: logstar (Thm 2.3) and the sifting chain (Sec 2.3).

class ChainMachine final : public sim::BatchAlgorithm {
 public:
  ChainMachine(int k, std::uint32_t reg_base, int n, GeSpec ge)
      : core_(k, reg_base, n, std::move(ge), /*participation=*/n) {}

  std::size_t num_registers() const override { return core_.reg_end(); }
  std::size_t declared_registers() const override {
    return core_.declared_registers();
  }

  BatchAction start(int pid, support::PrngSource& rng) override {
    return finish_or_announce(core_.start(pid, rng));
  }
  BatchAction resume(int pid, support::PrngSource& rng,
                     std::uint64_t result) override {
    return finish_or_announce(core_.on(pid, rng, result));
  }

 private:
  static BatchAction finish_or_announce(const Sub& sub) {
    if (sub.k == Sub::K::kRead) return BatchAction::read(sub.reg);
    if (sub.k == Sub::K::kWrite) return BatchAction::write(sub.reg, sub.val);
    RTS_ASSERT_MSG(sub.val != kChainForward,
                   "full-length chain cannot overflow");
    return BatchAction::finish(sub.val == kChainWin ? Outcome::kWin
                                                    : Outcome::kLose);
  }

  ChainCore core_;
};

// ---------------------------------------------------------------------------
// Sifting cascade (Thm 2.4): truncated-participation levels funneled through
// the final LE2 chain.

class CascadeMachine final : public sim::BatchAlgorithm {
 public:
  CascadeMachine(int k, std::uint32_t reg_base, int n) {
    // Level sizes 4, 16, 65536, ... capped at n -- SiftCascadeLe's loop.
    std::vector<int> sizes;
    for (int i = 0;; ++i) {
      const int exponent = (i >= 3) ? 64 : (1 << (1 << i));  // 2^(2^i)
      const std::int64_t size =
          exponent >= 63 ? std::int64_t{1} << 62 : std::int64_t{1} << exponent;
      if (size >= static_cast<std::int64_t>(n)) {
        sizes.push_back(n);
        break;
      }
      sizes.push_back(static_cast<int>(size));
    }
    std::uint32_t cursor = reg_base;
    levels_.reserve(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const int ni = std::max(2, sizes[i]);
      const bool last = i + 1 == sizes.size();
      GeSpec spec = sift_spec(ni);
      const int schedule_len = static_cast<int>(spec.thresholds.size());
      const int chain_len = last ? std::max(n, schedule_len) : schedule_len;
      const int participation = last ? chain_len : schedule_len;
      levels_.emplace_back(k, cursor, chain_len, std::move(spec),
                           participation);
      cursor = levels_.back().reg_end();
    }
    finals_base_.reserve(levels_.size() > 0 ? levels_.size() - 1 : 0);
    for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
      finals_base_.push_back(cursor);
      cursor += 2;
    }
    reg_end_ = cursor;
    st_.resize(static_cast<std::size_t>(k));
  }

  std::size_t num_registers() const override { return reg_end_; }
  std::size_t declared_registers() const override {
    std::size_t total = 0;
    for (const auto& level : levels_) total += level.declared_registers();
    return total + finals_base_.size() * 2;
  }

  BatchAction start(int pid, support::PrngSource& rng) override {
    PidState& s = st_[static_cast<std::size_t>(pid)];
    s.in_finals = false;
    s.level = 0;
    return advance(s, pid, rng, levels_[0].start(pid, rng));
  }

  BatchAction resume(int pid, support::PrngSource& rng,
                     std::uint64_t result) override {
    PidState& s = st_[static_cast<std::size_t>(pid)];
    if (s.in_finals) {
      const Sub sub = le2_on(s.leaf, finals_base_[s.j], rng, result);
      if (sub.k != Sub::K::kDone) return announce(sub);
      return finals_step(s, static_cast<Outcome>(sub.val));
    }
    return advance(s, pid, rng,
                   levels_[static_cast<std::size_t>(s.level)].on(pid, rng,
                                                                 result));
  }

 private:
  struct PidState {
    bool in_finals = false;
    std::int32_t level = 0;
    std::size_t j = 0;  // finals position
    LeafState leaf;
  };

  static BatchAction announce(const Sub& sub) {
    return sub.k == Sub::K::kRead ? BatchAction::read(sub.reg)
                                  : BatchAction::write(sub.reg, sub.val);
  }

  /// Routes a level-chain Sub: forwards to the next level, funnels winners
  /// into the final descent, loses losers.
  BatchAction advance(PidState& s, int pid, support::PrngSource& rng,
                      Sub sub) {
    for (;;) {
      if (sub.k != Sub::K::kDone) return announce(sub);
      switch (sub.val) {
        case kChainLose:
          return BatchAction::finish(Outcome::kLose);
        case kChainForward:
          RTS_ASSERT_MSG(s.level + 1 < static_cast<std::int32_t>(
                                           levels_.size()),
                         "last cascade level must not forward");
          ++s.level;
          sub = levels_[static_cast<std::size_t>(s.level)].start(pid, rng);
          continue;
        default: {  // kChainWin: enter the final LE2 descent
          if (finals_base_.empty()) {
            return BatchAction::finish(Outcome::kWin);  // single level
          }
          s.in_finals = true;
          int side;
          if (s.level + 1 == static_cast<std::int32_t>(levels_.size())) {
            s.j = finals_base_.size() - 1;  // last level enters F_{m-1}
            side = 1;
          } else {
            s.j = static_cast<std::size_t>(s.level);
            side = 0;
          }
          return announce(le2_begin(s.leaf, finals_base_[s.j], side));
        }
      }
    }
  }

  BatchAction finals_step(PidState& s, Outcome outcome) {
    if (outcome == Outcome::kLose) return BatchAction::finish(Outcome::kLose);
    if (s.j == 0) return BatchAction::finish(Outcome::kWin);
    --s.j;
    return announce(le2_begin(s.leaf, finals_base_[s.j], 1));
  }

  std::vector<ChainCore> levels_;
  std::vector<std::uint32_t> finals_base_;
  std::uint32_t reg_end_ = 0;
  std::vector<PidState> st_;
};

// ---------------------------------------------------------------------------
// RatRacePath (Sec 3.2): randomized-splitter tree, per-leaf-group
// elimination paths, one shared backup path, final LE2.

class RatRacePathMachine final : public sim::BatchAlgorithm {
 public:
  RatRacePathMachine(int k, std::uint32_t reg_base, int n)
      : n_(n),
        height_(std::max(
            1, support::log2_ceil(
                   static_cast<std::uint64_t>(std::max(2, n))))) {
    const std::uint64_t leaves = 1ULL << height_;
    group_size_ = static_cast<std::uint64_t>(height_);
    num_paths_ = (leaves + group_size_ - 1) / group_size_;
    path_len_ = 4 * height_;
    tree_nodes_ = (2ULL << height_) - 1;
    // Layout: [tree nodes: rsplit X/Y, le3.a R0/R1, le3.b R0/R1] [paths:
    // per node splitter X/Y + le2 R0/R1] [backup path: n nodes] [top le2].
    tree_base_ = reg_base;
    paths_base_ = tree_base_ + static_cast<std::uint32_t>(tree_nodes_ * 6);
    backup_base_ =
        paths_base_ +
        static_cast<std::uint32_t>(num_paths_ *
                                   static_cast<std::uint64_t>(path_len_) * 4);
    top_base_ = backup_base_ + static_cast<std::uint32_t>(n) * 4;
    reg_end_ = top_base_ + 2;
    st_.resize(static_cast<std::size_t>(k));
  }

  std::size_t num_registers() const override { return reg_end_; }
  std::size_t declared_registers() const override {
    return tree_nodes_ * 6 +
           static_cast<std::size_t>(num_paths_) *
               static_cast<std::size_t>(path_len_) * 4 +
           static_cast<std::size_t>(n_) * 4 + 2;
  }

  /// Whether pid is committed to RatRace this trial (stopped at a tree
  /// splitter or entered an elimination path) -- the combiner's rule-3
  /// input, exactly RatRacePath::won_splitter.
  bool won_splitter(int pid) const {
    return st_[static_cast<std::size_t>(pid)].won != 0;
  }

  BatchAction start(int pid, support::PrngSource&) override {
    PidState& s = st_[static_cast<std::size_t>(pid)];
    s.phase = Phase::kDescend;
    s.node_id = 1;
    s.depth = 0;
    s.won = 0;
    return announce(split_begin(s.leaf, node_base(1), pid));
  }

  BatchAction resume(int pid, support::PrngSource& rng,
                     std::uint64_t result) override {
    PidState& s = st_[static_cast<std::size_t>(pid)];
    switch (s.phase) {
      case Phase::kDescend: {
        const Sub sub =
            rsplit_on(s.leaf, node_base(s.node_id), pid, rng, result);
        if (sub.k != Sub::K::kDone) return announce(sub);
        if (sub.val == kStop) {
          s.won = 1;  // stopped: climb from here as the splitter winner
          return enter_le3(s, s.node_id, /*role=*/0);
        }
        if (s.depth == height_) {
          // Fell off leaf j: enter the leaf group's elimination path, which
          // commits pid to RatRace (RatRacePath::won_splitter).
          const std::uint64_t leaf_index = s.node_id - (1ULL << height_);
          s.path_index = static_cast<std::uint32_t>(leaf_index / group_size_);
          s.won = 1;
          s.phase = Phase::kPath;
          s.t = 0;
          return announce(
              split_begin(s.leaf, path_node(s.path_index, 0), pid));
        }
        s.node_id = 2 * s.node_id + (sub.val == kRight ? 1 : 0);
        ++s.depth;
        return announce(split_begin(s.leaf, node_base(s.node_id), pid));
      }
      case Phase::kClimb: {
        const std::uint32_t le2 =
            node_base(s.node_id) + 2 + (s.le3_sub != 0 ? 2u : 0u);
        const Sub sub = le2_on(s.leaf, le2, rng, result);
        if (sub.k != Sub::K::kDone) return announce(sub);
        if (static_cast<Outcome>(sub.val) == Outcome::kLose) {
          return BatchAction::finish(Outcome::kLose);
        }
        if (s.le3_sub == 0) {  // won le3.a: the survivor plays b as side 0
          s.le3_sub = 1;
          return announce(
              le2_begin(s.leaf, node_base(s.node_id) + 4, 0));
        }
        if (s.node_id == 1) return enter_top(s, /*side=*/0);
        const int role = (s.node_id & 1) != 0 ? 2 : 1;
        s.node_id >>= 1;
        return enter_le3(s, s.node_id, role);
      }
      case Phase::kPath: {
        const Sub sub = split_on(s.leaf, path_node(s.path_index, s.t), pid,
                                 result);
        if (sub.k != Sub::K::kDone) return announce(sub);
        if (sub.val == kLeft) return BatchAction::finish(Outcome::kLose);
        if (sub.val == kStop) {
          s.phase = Phase::kPathClimb;
          return announce(le2_begin(
              s.leaf, path_node(s.path_index, s.t) + 2, 0));
        }
        ++s.t;  // kRight
        if (static_cast<int>(s.t) >= path_len_) {
          // Overflowed the group path: the shared backup path absorbs it.
          s.phase = Phase::kBackup;
          s.t = 0;
          return announce(split_begin(s.leaf, backup_node(0), pid));
        }
        return announce(
            split_begin(s.leaf, path_node(s.path_index, s.t), pid));
      }
      case Phase::kPathClimb: {
        const Sub sub = le2_on(
            s.leaf, path_node(s.path_index, s.t) + 2, rng, result);
        if (sub.k != Sub::K::kDone) return announce(sub);
        if (static_cast<Outcome>(sub.val) == Outcome::kLose) {
          return BatchAction::finish(Outcome::kLose);
        }
        if (s.t != 0) {
          --s.t;
          return announce(le2_begin(
              s.leaf, path_node(s.path_index, s.t) + 2, 1));
        }
        // Path winner: re-enter the tree at leaf `path_index` with role 1.
        const std::uint64_t leaf_id = (1ULL << height_) + s.path_index;
        return enter_le3(s, leaf_id, /*role=*/1);
      }
      case Phase::kBackup: {
        const Sub sub = split_on(s.leaf, backup_node(s.t), pid, result);
        if (sub.k != Sub::K::kDone) return announce(sub);
        if (sub.val == kLeft) return BatchAction::finish(Outcome::kLose);
        if (sub.val == kStop) {
          s.phase = Phase::kBackupClimb;
          return announce(le2_begin(s.leaf, backup_node(s.t) + 2, 0));
        }
        ++s.t;
        RTS_ASSERT_MSG(static_cast<int>(s.t) < n_,
                       "backup elimination path of length n overflowed");
        return announce(split_begin(s.leaf, backup_node(s.t), pid));
      }
      case Phase::kBackupClimb: {
        const Sub sub = le2_on(s.leaf, backup_node(s.t) + 2, rng, result);
        if (sub.k != Sub::K::kDone) return announce(sub);
        if (static_cast<Outcome>(sub.val) == Outcome::kLose) {
          return BatchAction::finish(Outcome::kLose);
        }
        if (s.t != 0) {
          --s.t;
          return announce(le2_begin(s.leaf, backup_node(s.t) + 2, 1));
        }
        return enter_top(s, /*side=*/1);  // backup winner plays side 1
      }
      default: {  // Phase::kTop
        const Sub sub = le2_on(s.leaf, top_base_, rng, result);
        if (sub.k != Sub::K::kDone) return announce(sub);
        return BatchAction::finish(static_cast<Outcome>(sub.val));
      }
    }
  }

 private:
  enum class Phase : std::uint8_t {
    kDescend,
    kClimb,
    kPath,
    kPathClimb,
    kBackup,
    kBackupClimb,
    kTop,
  };

  struct PidState {
    Phase phase = Phase::kDescend;
    std::uint8_t le3_sub = 0;  // 0 = playing le3.a, 1 = playing le3.b
    std::uint8_t won = 0;
    std::int32_t depth = 0;
    std::uint64_t node_id = 1;
    std::uint32_t path_index = 0;
    std::uint32_t t = 0;  // elimination-path position (descend and climb)
    LeafState leaf;
  };

  static BatchAction announce(const Sub& sub) {
    return sub.k == Sub::K::kRead ? BatchAction::read(sub.reg)
                                  : BatchAction::write(sub.reg, sub.val);
  }

  std::uint32_t node_base(std::uint64_t id) const {
    return tree_base_ + static_cast<std::uint32_t>((id - 1) * 6);
  }
  std::uint32_t path_node(std::uint32_t path, std::uint32_t t) const {
    return paths_base_ +
           (path * static_cast<std::uint32_t>(path_len_) + t) * 4;
  }
  std::uint32_t backup_node(std::uint32_t t) const {
    return backup_base_ + t * 4;
  }

  /// Starts the LE3 of `node` for `role` (0 = stopper, 1 = left winner,
  /// 2 = right winner): roles 0/1 play le2 `a` first, role 2 goes straight
  /// to `b` as side 1.
  BatchAction enter_le3(PidState& s, std::uint64_t node, int role) {
    s.phase = Phase::kClimb;
    s.node_id = node;
    if (role <= 1) {
      s.le3_sub = 0;
      return announce(le2_begin(s.leaf, node_base(node) + 2, role));
    }
    s.le3_sub = 1;
    return announce(le2_begin(s.leaf, node_base(node) + 4, 1));
  }

  BatchAction enter_top(PidState& s, int side) {
    s.phase = Phase::kTop;
    return announce(le2_begin(s.leaf, top_base_, side));
  }

  int n_;
  int height_;
  std::uint64_t group_size_ = 1;
  std::uint64_t num_paths_ = 0;
  int path_len_ = 0;
  std::uint64_t tree_nodes_ = 0;
  std::uint32_t tree_base_ = 0;
  std::uint32_t paths_base_ = 0;
  std::uint32_t backup_base_ = 0;
  std::uint32_t top_base_ = 0;
  std::uint32_t reg_end_ = 0;
  std::vector<PidState> st_;
};

// ---------------------------------------------------------------------------
// Section-4 combiner: RatRacePath and a weak-adversary algorithm A advance
// alternately, one shared-memory op per turn.  The scalar version runs the
// children on fibers; here each child is a machine and the coordinator
// "parks" the result of each granted op until the child's next turn --
// exactly the scalar timing, where Context::sync_op captures the result
// before yielding to the coordinating fiber.

class CombinedMachine final : public sim::BatchAlgorithm {
 public:
  CombinedMachine(int k, std::uint32_t reg_base, int n,
                  std::unique_ptr<sim::BatchAlgorithm> (*make_a)(
                      int, std::uint32_t, int))
      : rr_(k, reg_base, n) {
    a_ = make_a(k, reg_base + static_cast<std::uint32_t>(rr_.num_registers()),
                n);
    top_base_ = reg_base +
                static_cast<std::uint32_t>(rr_.num_registers()) +
                static_cast<std::uint32_t>(a_->num_registers());
    reg_end_ = top_base_ + 2;
    st_.resize(static_cast<std::size_t>(k));
  }

  std::size_t num_registers() const override { return reg_end_; }
  std::size_t declared_registers() const override {
    return rr_.declared_registers() + a_->declared_registers() + 2;
  }

  BatchAction start(int pid, support::PrngSource& rng) override {
    PidState& s = st_[static_cast<std::size_t>(pid)];
    s = PidState{};
    return coordinate(s, pid, rng);
  }

  BatchAction resume(int pid, support::PrngSource& rng,
                     std::uint64_t result) override {
    PidState& s = st_[static_cast<std::size_t>(pid)];
    if (s.in_top) {
      const Sub sub = le2_on(s.top_leaf, top_base_, rng, result);
      if (sub.k == Sub::K::kRead) return BatchAction::read(sub.reg);
      if (sub.k == Sub::K::kWrite) return BatchAction::write(sub.reg, sub.val);
      return BatchAction::finish(static_cast<Outcome>(sub.val));
    }
    // Park the granted result with the child that announced the op; the
    // child consumes it on its next turn.
    s.parked[s.pending_child] = result;
    s.status[s.pending_child] = Status::kParked;
    return coordinate(s, pid, rng);
  }

 private:
  enum class Status : std::uint8_t { kUnstarted, kParked, kDone };

  struct PidState {
    bool in_top = false;
    bool rr_turn = true;  // odd steps RatRace, even steps A
    bool a_abandoned = false;
    std::uint8_t pending_child = 0;  // 0 = RatRace, 1 = A
    Status status[2] = {Status::kUnstarted, Status::kUnstarted};
    Outcome out[2] = {Outcome::kUnknown, Outcome::kUnknown};
    std::uint64_t parked[2] = {0, 0};
    LeafState top_leaf;
  };

  /// The combination rules + turn-taking of CombinedLe::elect, advancing
  /// children until one of them announces an op or a rule resolves the
  /// election.
  BatchAction coordinate(PidState& s, int pid, support::PrngSource& rng) {
    for (;;) {
      // Rule 1: a win in either execution goes to LE_top.
      if (s.out[0] == Outcome::kWin) return enter_top(s, 0);
      if (s.out[1] == Outcome::kWin) return enter_top(s, 1);
      // Rule 2: losing RatRace loses outright.
      if (s.out[0] == Outcome::kLose) {
        return BatchAction::finish(Outcome::kLose);
      }
      // Rule 3: losing A loses only while uncommitted to RatRace; entering
      // an elimination path commits too (see CombinedLe).
      if (s.out[1] == Outcome::kLose && !s.a_abandoned) {
        if (!rr_.won_splitter(pid)) {
          return BatchAction::finish(Outcome::kLose);
        }
        s.a_abandoned = true;
      }

      const bool a_available =
          !s.a_abandoned && s.out[1] == Outcome::kUnknown;
      const bool step_rr = s.rr_turn || !a_available;
      s.rr_turn = !s.rr_turn;
      const int c = step_rr ? 0 : 1;
      sim::BatchAlgorithm& child =
          c == 0 ? static_cast<sim::BatchAlgorithm&>(rr_) : *a_;
      const BatchAction act =
          s.status[c] == Status::kUnstarted
              ? child.start(pid, rng)
              : child.resume(pid, rng, s.parked[c]);
      if (act.kind == BatchAction::Kind::kFinish) {
        s.out[c] = act.outcome;
        s.status[c] = Status::kDone;
        continue;  // the rules decide what the loss/win means
      }
      s.pending_child = static_cast<std::uint8_t>(c);
      return act;
    }
  }

  BatchAction enter_top(PidState& s, int side) {
    s.in_top = true;
    const Sub sub = le2_begin(s.top_leaf, top_base_, side);
    return BatchAction::write(sub.reg, sub.val);  // le2 opens with a write
  }

  RatRacePathMachine rr_;
  std::unique_ptr<sim::BatchAlgorithm> a_;
  std::uint32_t top_base_ = 0;
  std::uint32_t reg_end_ = 0;
  std::vector<PidState> st_;
};

std::unique_ptr<sim::BatchAlgorithm> make_logstar(int k, std::uint32_t base,
                                                  int n) {
  return std::make_unique<ChainMachine>(k, base, n, fig1_spec(n));
}

std::unique_ptr<sim::BatchAlgorithm> make_sift_chain(int k,
                                                     std::uint32_t base,
                                                     int n) {
  return std::make_unique<ChainMachine>(k, base, n, sift_spec(n));
}

std::unique_ptr<sim::BatchAlgorithm> make_cascade(int k, std::uint32_t base,
                                                  int n) {
  return std::make_unique<CascadeMachine>(k, base, n);
}

}  // namespace

std::unique_ptr<sim::BatchAlgorithm> make_machine(AlgorithmId id, int n,
                                                  int k) {
  switch (id) {
    case AlgorithmId::kLogStarChain:
      return make_logstar(k, 0, n);
    case AlgorithmId::kSiftChain:
      return make_sift_chain(k, 0, n);
    case AlgorithmId::kSiftCascade:
      return make_cascade(k, 0, n);
    case AlgorithmId::kRatRacePath:
      return std::make_unique<RatRacePathMachine>(k, 0, n);
    case AlgorithmId::kCombinedLogStar:
      return std::make_unique<CombinedMachine>(k, 0, n, &make_logstar);
    case AlgorithmId::kCombinedSift:
      return std::make_unique<CombinedMachine>(k, 0, n, &make_cascade);
    default:
      return nullptr;
  }
}

bool batch_supported(AlgorithmId id) {
  return make_machine(id, 2, 1) != nullptr;
}

bool batch_schedulable(AdversaryId id) {
  const AdversaryInfo& adversary = info(id);
  return adversary.clazz == sim::AdversaryClass::kOblivious &&
         !adversary.from_trace;
}

std::unique_ptr<sim::BatchStream> make_batch_stream(
    AlgorithmId algorithm, AdversaryId adversary, int n, int k, int lanes,
    std::uint64_t seed0, std::uint64_t step_limit) {
  if (!batch_schedulable(adversary)) return nullptr;
  auto machine = make_machine(algorithm, n, k);
  if (machine == nullptr) return nullptr;
  sim::BatchConfig config;
  config.n = n;
  config.k = k;
  config.lanes = lanes;
  config.seed0 = seed0;
  config.step_limit = step_limit;
  return sim::make_batch_stream(std::move(machine),
                                adversary_factory(adversary), config);
}

}  // namespace rts::algo
