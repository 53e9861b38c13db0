#include "lowerbound/covering.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "sim/kernel.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace rts::lb {

namespace {

/// Minimal union-find over pids.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
  }

  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

 private:
  std::vector<int> parent_;
};

bool pending_write(const sim::Kernel& kernel, int pid) {
  return kernel.runnable(pid) &&
         kernel.pending(pid).kind == sim::OpKind::kWrite;
}

}  // namespace

CoveringResult run_covering_argument(algo::AlgorithmId algorithm, int n,
                                     std::uint64_t seed) {
  CoveringResult result;
  result.n = n;
  result.paper_bound = support::log2_ceil(static_cast<std::uint64_t>(n)) - 1;
  if (n < 8 || !support::is_pow2(static_cast<std::uint64_t>(n))) {
    result.error = "n must be a power of two, n >= 8";
    return result;
  }

  if (!algo::supports(algorithm, exec::Backend::kSim)) {
    result.error = std::string("algorithm '") + algo::info(algorithm).name +
                   "' has no simulator backend";
    return result;
  }

  sim::Kernel::Options options;
  options.step_limit = 5'000'000;
  sim::Kernel kernel(options);
  algo::SimPlatform::Arena arena(kernel.memory());
  std::shared_ptr<algo::ILeaderElect<algo::SimPlatform>> le =
      algo::make_sim_le(algorithm, arena, n);

  std::vector<sim::Outcome> outcomes(static_cast<std::size_t>(n),
                                     sim::Outcome::kUnknown);
  for (int pid = 0; pid < n; ++pid) {
    kernel.add_process(
        [le, &outcomes, pid](sim::Context& ctx) {
          outcomes[static_cast<std::size_t>(pid)] = le->elect(ctx);
        },
        std::make_unique<support::PrngSource>(
            support::derive_seed(seed, static_cast<std::uint64_t>(pid))));
  }
  kernel.start();

  UnionFind groups(n);
  // Representative of each group root; starts as the pid itself.
  std::vector<int> rep_of_root(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) rep_of_root[static_cast<std::size_t>(pid)] = pid;

  // Claim 5.3 isolation check: during a Q-only run, reads must never see a
  // writer outside Q (the initial overwrites erase outside visibility).
  std::set<int> current_q;  // group roots of the running cohort
  bool isolation_ok = true;
  kernel.set_op_observer([&](const sim::OpRecord& record) {
    if (current_q.empty() || record.kind != sim::OpKind::kRead) return;
    if (record.prev_writer < 0) return;
    if (current_q.count(groups.find(record.prev_writer)) == 0 &&
        outcomes[static_cast<std::size_t>(record.prev_writer)] ==
            sim::Outcome::kUnknown &&
        kernel.state(record.prev_writer) != sim::SimProcess::State::kFinished) {
      isolation_ok = false;
    }
  });

  // ---- Round 0: run everyone (independently) up to their first pending
  // write, granting only reads.
  for (int pid = 0; pid < n; ++pid) {
    std::uint64_t guard = 0;
    while (kernel.runnable(pid) &&
           kernel.pending(pid).kind == sim::OpKind::kRead) {
      kernel.grant(pid);
      if (++guard > 100000) {
        result.error = "process never became poised to write in round 0";
        return result;
      }
    }
    if (!pending_write(kernel, pid)) {
      result.error = "process finished without writing in a solo prefix";
      return result;
    }
  }

  // Active group roots: groups whose representative is poised to write.
  const auto live_roots = [&]() {
    std::set<int> roots;
    for (int pid = 0; pid < n; ++pid) {
      const int root = groups.find(pid);
      if (roots.count(root) != 0) continue;
      const int rep = rep_of_root[static_cast<std::size_t>(root)];
      if (pending_write(kernel, rep)) roots.insert(root);
    }
    return roots;
  };

  result.m_history.push_back(static_cast<int>(live_roots().size()));

  // ---- Rounds 1 .. n-4.
  for (int k = 0; k < n - 4; ++k) {
    const std::set<int> roots = live_roots();
    const int m_k = static_cast<int>(roots.size());

    // Cover counts per register, over representatives.
    std::map<sim::RegId, std::vector<int>> cover;  // reg -> covering roots
    for (const int root : roots) {
      const int rep = rep_of_root[static_cast<std::size_t>(root)];
      cover[kernel.pending(rep).reg].push_back(root);
    }
    // Invariant (b): nothing covered by more than n - k representatives.
    for (const auto& [reg, owners] : cover) {
      if (static_cast<int>(owners.size()) > n - k) {
        result.error = "invariant (b) violated at round " + std::to_string(k);
        return result;
      }
    }

    std::vector<sim::RegId> R;
    std::set<sim::RegId> R_union_Rprime;
    for (const auto& [reg, owners] : cover) {
      if (static_cast<int>(owners.size()) == n - k) {
        R.push_back(reg);
        R_union_Rprime.insert(reg);
      }
      if (static_cast<int>(owners.size()) == n - k - 1) {
        R_union_Rprime.insert(reg);
      }
    }
    if (R.empty()) {
      result.m_history.push_back(m_k);
      continue;
    }

    // One covering representative per register of R; Q = their groups.
    std::vector<int> chosen_reps;
    std::set<int> q_roots;
    for (const sim::RegId reg : R) {
      const int root = cover[reg].front();
      chosen_reps.push_back(rep_of_root[static_cast<std::size_t>(root)]);
      q_roots.insert(root);
    }

    // The chosen representatives perform exactly their covering writes,
    // erasing anything visible on R.
    for (const int rep : chosen_reps) kernel.grant(rep);

    // Q-only execution: reads anywhere, writes only inside R u R', until
    // someone in Q is poised to write outside.
    current_q = q_roots;
    const auto in_q = [&](int pid) {
      return q_roots.count(groups.find(pid)) != 0;
    };
    int poised_outside = -1;
    std::uint64_t guard = 0;
    while (poised_outside < 0) {
      // Stop as soon as anyone in Q is poised to write outside R u R'.
      bool granted = false;
      for (int pid = 0; pid < n && poised_outside < 0; ++pid) {
        if (!in_q(pid) || !kernel.runnable(pid)) continue;
        const sim::PendingOp& op = kernel.pending(pid);
        if (op.kind == sim::OpKind::kWrite &&
            R_union_Rprime.count(op.reg) == 0) {
          poised_outside = pid;
          break;
        }
        kernel.grant(pid);
        granted = true;
      }
      if (poised_outside >= 0) break;
      if (!granted) {
        result.error =
            "Claim 5.3 failed: cohort drained without a write poised "
            "outside R u R' (round " + std::to_string(k) + ")";
        current_q.clear();
        return result;
      }
      if (++guard > 200000) {
        result.error = "round " + std::to_string(k) + " did not converge";
        current_q.clear();
        return result;
      }
    }
    current_q.clear();
    if (!isolation_ok) {
      result.error = "isolation violated: Q saw a live outside process";
      return result;
    }

    // Merge Q into one group represented by the poised-outside process.
    int merged_root = groups.find(poised_outside);
    for (const int root : q_roots) {
      groups.unite(root, merged_root);
    }
    merged_root = groups.find(poised_outside);
    rep_of_root[static_cast<std::size_t>(merged_root)] = poised_outside;

    const int m_next = static_cast<int>(live_roots().size());
    // Invariant (e): m_{k+1} >= m_k - floor(m_k / (n-k)) + 1.
    if (m_next < m_k - m_k / (n - k) + 1 - 1) {  // -1 slack: reps may lose
      result.error = "invariant (e) violated at round " + std::to_string(k);
      return result;
    }
    result.m_history.push_back(m_next);
    ++result.rounds;
  }

  // ---- Final accounting.
  const std::set<int> final_roots = live_roots();
  std::set<sim::RegId> covered;
  for (const int root : final_roots) {
    covered.insert(
        kernel.pending(rep_of_root[static_cast<std::size_t>(root)]).reg);
  }
  result.final_groups = static_cast<int>(final_roots.size());
  result.covered_registers = static_cast<int>(covered.size());
  result.total_steps = kernel.total_steps();
  result.ok = true;
  return result;
}

}  // namespace rts::lb
