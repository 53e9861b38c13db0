// RatRace (Alistarh, Attiya, Gilbert, Giurgiu, Guerraoui 2010) and the
// paper's Section-3 space-efficient modification.
//
// RatRaceOriginal -- the baseline the paper improves:
//   * primary tree: complete binary tree of height 3*ceil(log2 n); each node
//     holds a randomized splitter and a 3-process leader election.  A
//     process descends (L -> left child, R -> right child) until it wins a
//     splitter, then climbs back to the root winning the LE3 of every node
//     on its path (stopper = role 0, left-child winner = role 1, right-child
//     winner = role 2).
//   * backup grid: n x n nodes of deterministic splitter + LE3 for the (low
//     probability) processes that fall off the tree; L -> down, R -> right.
//   * the tree-root winner and the grid winner play a final 2-process LE.
//   Space: Theta(2^(3 log n)) = Theta(n^3) declared registers.  Nodes are
//   materialized lazily, so the *touched* register count stays small; the
//   declared count is the analytic structure size.
//
// RatRacePath -- the paper's modification (Section 3.2):
//   * primary tree of height only ceil(log2 n);
//   * a process falling off leaf j enters elimination path number
//     floor(j / log n); paths have length 4*ceil(log2 n) (Claim 3.2: a fixed
//     group of log n leaves receives more than 4 log n processes with
//     probability at most 1/n^2);
//   * the winner of path i re-enters the tree at leaf i (playing role 1 of
//     the leaf's LE3) and climbs to the root as usual;
//   * processes falling off a path enter one shared backup elimination path
//     of length n (Claim 3.1: it cannot overflow);
//   * the tree winner and the backup-path winner play the final LE2.
//   Space: Theta(n) declared registers.
//
// Both variants have O(log k) expected (and w.h.p.) step complexity against
// the adaptive adversary; the experiments compare their space.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/elim_path.hpp"
#include "algo/le2.hpp"
#include "algo/le3.hpp"
#include "algo/platform.hpp"
#include "algo/splitter.hpp"
#include "algo/stages.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace rts::algo {

namespace detail {

/// Lazily materialized tree of {randomized splitter, LE3} nodes in heap
/// numbering (root = 1; children of v are 2v and 2v+1).
template <Platform P>
class LazySplitterTree {
 public:
  LazySplitterTree(typename P::Arena arena, int height)
      : arena_(arena), height_(height) {}

  int height() const { return height_; }

  struct Node {
    Node(typename P::Arena arena, std::uint32_t tag)
        : rs(arena, tag), le(arena, tag) {}
    RSplitter<P> rs;
    Le3<P> le;
  };

  Node& node(std::uint64_t id) {
    std::scoped_lock lock(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      it = nodes_
               .emplace(id, std::make_unique<Node>(
                                arena_, static_cast<std::uint32_t>(id)))
               .first;
    }
    return *it->second;
  }

  /// Descends from the root.  Returns true and sets `stop_id` if the process
  /// won a splitter; returns false and sets `leaf_index` if it fell off.
  bool descend(typename P::Context& ctx, std::uint64_t& stop_id,
               std::uint64_t& leaf_index) {
    std::uint64_t id = 1;
    for (int depth = 0;; ++depth) {
      ctx.publish_stage(stage::make(stage::kTree,
                                    static_cast<std::uint32_t>(id)));
      const SplitResult r = node(id).rs.split(ctx);
      if (r == SplitResult::kStop) {
        stop_id = id;
        return true;
      }
      if (depth == height_) {
        leaf_index = id - (1ULL << height_);
        return false;
      }
      id = 2 * id + (r == SplitResult::kRight ? 1 : 0);
    }
  }

  /// Climbs from `from_id` to the root, playing each LE3; `entry_role` is
  /// the caller's role at the starting node.  kWin means the root's LE3 was
  /// won.
  sim::Outcome climb(typename P::Context& ctx, std::uint64_t from_id,
                     int entry_role) {
    std::uint64_t id = from_id;
    int role = entry_role;
    for (;;) {
      ctx.publish_stage(stage::make(stage::kTree,
                                    static_cast<std::uint32_t>(id)));
      if (node(id).le.elect(ctx, role) == sim::Outcome::kLose) {
        return sim::Outcome::kLose;
      }
      if (id == 1) return sim::Outcome::kWin;
      role = (id & 1) != 0 ? 2 : 1;  // right children feed role 2
      id >>= 1;
    }
  }

  std::size_t declared_nodes() const { return (2ULL << height_) - 1; }

 private:
  typename P::Arena arena_;
  int height_;
  typename P::Mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Node>> nodes_;
};

}  // namespace detail

template <Platform P>
class RatRaceOriginal final : public ILeaderElect<P> {
 public:
  RatRaceOriginal(typename P::Arena arena, int n)
      : n_(n),
        arena_(arena),
        tree_(arena, 3 * std::max(1, support::log2_ceil(
                             static_cast<std::uint64_t>(std::max(2, n))))),
        le_top_(arena),
        won_splitter_(static_cast<std::size_t>(n), 0) {
    RTS_REQUIRE(n >= 1, "RatRace requires n >= 1");
  }

  sim::Outcome elect(typename P::Context& ctx) override {
    std::uint64_t stop_id = 0;
    std::uint64_t leaf_index = 0;
    if (tree_.descend(ctx, stop_id, leaf_index)) {
      mark_splitter_win(ctx);
      if (tree_.climb(ctx, stop_id, 0) == sim::Outcome::kLose) {
        return sim::Outcome::kLose;
      }
      return play_top(ctx, 0);
    }
    return run_grid(ctx);
  }

  bool won_splitter(int pid) const {
    return won_splitter_[static_cast<std::size_t>(pid)] != 0;
  }

  void reset_trial_state() override {
    std::fill(won_splitter_.begin(), won_splitter_.end(), 0);
  }

  std::size_t declared_registers() const override {
    const std::size_t per_node =
        RSplitter<P>::kRegisters + Le3<P>::kRegisters;
    const std::size_t grid =
        static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_) *
        (Splitter<P>::kRegisters + Le3<P>::kRegisters);
    return tree_.declared_nodes() * per_node + grid + Le2<P>::kRegisters;
  }

 private:
  struct GridNode {
    GridNode(typename P::Arena arena, std::uint32_t tag)
        : sp(arena, tag), le(arena, tag) {}
    Splitter<P> sp;
    Le3<P> le;
  };

  GridNode& grid_node(std::uint64_t i, std::uint64_t j) {
    const std::uint64_t key = (i << 32) | j;
    std::scoped_lock lock(grid_mu_);
    auto it = grid_.find(key);
    if (it == grid_.end()) {
      it = grid_
               .emplace(key, std::make_unique<GridNode>(
                                 arena_, static_cast<std::uint32_t>(key)))
               .first;
    }
    return *it->second;
  }

  sim::Outcome run_grid(typename P::Context& ctx) {
    // Descend the grid: L -> down (i+1), R -> right (j+1), recording moves
    // so the climb can retrace the path.
    std::uint64_t i = 0;
    std::uint64_t j = 0;
    std::vector<std::uint8_t> moves;  // 0 = came via L, 1 = came via R
    for (;;) {
      ctx.publish_stage(stage::make(
          stage::kGrid, static_cast<std::uint32_t>((i << 16) | j)));
      const SplitResult r = grid_node(i, j).sp.split(ctx);
      if (r == SplitResult::kStop) break;
      if (r == SplitResult::kLeft) {
        moves.push_back(0);
        ++i;
      } else {
        moves.push_back(1);
        ++j;
      }
      // The RatRace analysis guarantees a splitter win inside the n x n
      // grid whenever at most n processes enter it.
      RTS_ASSERT_MSG(i < static_cast<std::uint64_t>(n_) &&
                         j < static_cast<std::uint64_t>(n_),
                     "fell off the n x n backup grid: more than n entrants?");
    }
    mark_splitter_win(ctx);
    // Climb back to (0, 0).  At each predecessor node, a climber arriving
    // from below (L-edge) plays role 1, from the right (R-edge) role 2.
    int role = 0;
    for (;;) {
      if (grid_node(i, j).le.elect(ctx, role) == sim::Outcome::kLose) {
        return sim::Outcome::kLose;
      }
      if (moves.empty()) break;
      const std::uint8_t edge = moves.back();
      moves.pop_back();
      if (edge == 0) {
        role = 1;
        --i;
      } else {
        role = 2;
        --j;
      }
    }
    return play_top(ctx, 1);
  }

  sim::Outcome play_top(typename P::Context& ctx, int side) {
    ctx.publish_stage(stage::make(stage::kTop));
    return le_top_.elect(ctx, side);
  }

  void mark_splitter_win(typename P::Context& ctx) {
    const int pid = ctx.pid();
    if (pid >= 0 && pid < n_) {
      won_splitter_[static_cast<std::size_t>(pid)] = 1;
    }
  }

  int n_;
  typename P::Arena arena_;
  detail::LazySplitterTree<P> tree_;
  Le2<P> le_top_;
  typename P::Mutex grid_mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<GridNode>> grid_;
  std::vector<std::uint8_t> won_splitter_;
};

template <Platform P>
class RatRacePath final : public ILeaderElect<P> {
 public:
  RatRacePath(typename P::Arena arena, int n)
      : n_(n),
        height_(std::max(1, support::log2_ceil(
                                static_cast<std::uint64_t>(std::max(2, n))))),
        tree_(arena, height_),
        backup_(arena, n, /*stage_base=*/1u << 20),
        le_top_(arena),
        won_splitter_(static_cast<std::size_t>(n), 0) {
    RTS_REQUIRE(n >= 1, "RatRace requires n >= 1");
    const std::uint64_t leaves = 1ULL << height_;
    group_size_ = static_cast<std::uint64_t>(height_);  // log n leaves/path
    const auto num_paths =
        static_cast<std::size_t>((leaves + group_size_ - 1) / group_size_);
    const int path_len = 4 * height_;
    paths_.reserve(num_paths);
    for (std::size_t p = 0; p < num_paths; ++p) {
      paths_.push_back(std::make_unique<ElimPath<P>>(
          arena, path_len, static_cast<std::uint32_t>((p + 1) << 10)));
    }
  }

  sim::Outcome elect(typename P::Context& ctx) override {
    std::uint64_t stop_id = 0;
    std::uint64_t leaf_index = 0;
    if (tree_.descend(ctx, stop_id, leaf_index)) {
      mark_splitter_win(ctx);
      if (tree_.climb(ctx, stop_id, 0) == sim::Outcome::kLose) {
        return sim::Outcome::kLose;
      }
      return play_top(ctx, 0);
    }

    // Fell off leaf `leaf_index`: enter the leaf group's elimination path.
    // An elimination-path splitter eliminates (an entrant that finds its
    // door closed goes Left and loses), so from here on this process may
    // have knocked others out and counts as committed to RatRace (see
    // won_splitter).
    mark_splitter_win(ctx);
    const std::uint64_t path_index = leaf_index / group_size_;
    ctx.publish_stage(stage::make(
        stage::kPath, static_cast<std::uint32_t>(path_index)));
    switch (paths_[static_cast<std::size_t>(path_index)]->run(ctx)) {
      case ChainOutcome::kLose:
        return sim::Outcome::kLose;
      case ChainOutcome::kWin: {
        // Path winner re-enters the tree at leaf `path_index` (role 1 of the
        // leaf's LE3) and climbs to the root.
        const std::uint64_t leaf_id = (1ULL << height_) + path_index;
        if (tree_.climb(ctx, leaf_id, 1) == sim::Outcome::kLose) {
          return sim::Outcome::kLose;
        }
        return play_top(ctx, 0);
      }
      case ChainOutcome::kForward:
        break;  // overflowed the path: use the backup below
    }

    ctx.publish_stage(stage::make(stage::kPath, 0xffffffffu));
    switch (backup_.run(ctx)) {
      case ChainOutcome::kLose:
        return sim::Outcome::kLose;
      case ChainOutcome::kWin:
        return play_top(ctx, 1);
      case ChainOutcome::kForward:
        RTS_ASSERT_MSG(false,
                       "backup elimination path of length n overflowed");
    }
    return sim::Outcome::kLose;  // unreachable
  }

  /// Whether pid is committed to RatRace, the combiner's rule-3 input
  /// (algo/combined.hpp): it stopped at a tree splitter, or it entered an
  /// elimination path.  The second is more than the paper's "won a
  /// splitter": a path entrant may already have sent another entrant Left,
  /// out of RatRace, so it must not leave too.
  bool won_splitter(int pid) const {
    return won_splitter_[static_cast<std::size_t>(pid)] != 0;
  }

  void reset_trial_state() override {
    std::fill(won_splitter_.begin(), won_splitter_.end(), 0);
  }

  std::size_t declared_registers() const override {
    const std::size_t per_node =
        RSplitter<P>::kRegisters + Le3<P>::kRegisters;
    std::size_t total = tree_.declared_nodes() * per_node;
    for (const auto& path : paths_) total += path->declared_registers();
    total += backup_.declared_registers();
    total += Le2<P>::kRegisters;
    return total;
  }

 private:
  sim::Outcome play_top(typename P::Context& ctx, int side) {
    ctx.publish_stage(stage::make(stage::kTop));
    return le_top_.elect(ctx, side);
  }

  void mark_splitter_win(typename P::Context& ctx) {
    const int pid = ctx.pid();
    if (pid >= 0 && pid < n_) {
      won_splitter_[static_cast<std::size_t>(pid)] = 1;
    }
  }

  int n_;
  int height_;
  std::uint64_t group_size_ = 1;
  detail::LazySplitterTree<P> tree_;
  std::vector<std::unique_ptr<ElimPath<P>>> paths_;
  ElimPath<P> backup_;
  Le2<P> le_top_;
  std::vector<std::uint8_t> won_splitter_;
};

}  // namespace rts::algo
