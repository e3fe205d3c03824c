// Unified level-synchronous Bellman DP kernel for the exact layer.
//
// PC(S), PPC_p(S), and the Yao lower bounds of Section 4 are all values of
// the same backward induction over knowledge states (probed set P, observed
// greens G <= P):
//
//   V(state) = 0                                 if the state certifies S,
//   V(state) = min_{e not in P} cost_e(V(+e:green), V(+e:red))   otherwise,
//
// differing only in the transition cost: minimax for the adversary game
// (PC), a p-expectation for the i.i.d. failure model (PPC), and a
// conditional expectation over an explicit coloring distribution (Yao).
// DpKernel solves the recursion once, templated on that transition policy.
//
// Instead of a memoized search over a hash map, the kernel runs dense
// backward induction over levels k = |P| from n down to 0.  Level k holds
// exactly C(n,k) * 2^k states, stored contiguously: the probed sets of
// popcount k are ranked combinatorially (colexicographic order, which for
// fixed popcount is numeric order, so Gosper's hack enumerates blocks in
// rank order), and within a probed block the green subset is addressed by
// its compressed index (greens' bits packed into the low k positions).
// Only two levels are alive at a time -- the one being written and the one
// it reads, always one even and one odd -- so the whole frontier is one
// uninitialised block, split by level parity (DpFrontierLayout), instead
// of a global memo; the practical cap moves from the old n <= 14 to
// n >= 18 (the exact bound is the memory formula in dp_peak_bytes()).
// Each calling thread keeps its block across solves, so a repeated solve
// maps and faults in nothing: the block grows only when a solve needs
// more (the old one is unmapped before the new one is mapped), and a
// thread keeps its largest frontier until it exits.  A block larger than
// a solve's DpOptions::memory_limit_bytes is released before that solve
// runs, so no solve runs while its thread holds more than its own cap.
//
// The Bellman min is folded child-major: for each unprobed element in
// ascending order, the kernel streams that child's block once and folds
// its probe costs into the parent block's values (strict <, so ties keep
// the smaller element), tracking the argmin only where it is kept.  The
// terminal states are then overwritten in one pass.
//
// States within a level are independent (transitions only reach level
// k+1), so the kernel evaluates them in parallel on the calling thread's
// cached ThreadPool (ThreadPool::local, core/engine/parallel_for.h):
// the flat state range is carved into fixed-size chunks with disjoint
// output slots and no cross-thread reduction, making the results
// bit-identical for any thread count, including 1.
//
// The kernel also records the Bellman argmin: the root's optimal first
// probe always, and (with DpOptions::record_policy) the argmin element of
// every state, from which decision_tree.cpp materializes the full optimal
// strategy without re-running any search.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coloring.h"
#include "core/exact/char_table.h"
#include "quorum/quorum_system.h"

namespace qps::exact {

/// Thrown when one of the solve's allocations fails -- the frontier
/// (acquired once per solve from the calling thread's block, which is
/// mapped only when it must grow; reported at level k = n) or a level's
/// argmin table (record_policy): the upfront require_dp_feasible() formula
/// admitted the solve but the OS could not actually back the buffers
/// (overcommit, cgroup limits, memory pressure from neighbors).
/// Structured degradation -- callers can shrink n or retry -- instead of
/// an uncaught bad_alloc tearing the process down.  Deterministically
/// exercised via the "exact/level_alloc" fault point, which guards exactly
/// those allocations (the frontier's on every solve, whether its block is
/// reused or grown).
class BudgetExceeded : public std::runtime_error {
 public:
  BudgetExceeded(std::size_t n, std::size_t level, std::size_t bytes)
      : std::runtime_error("exact DP out of memory at n=" + std::to_string(n) +
                           " level k=" + std::to_string(level) + " (" +
                           std::to_string(bytes >> 20) +
                           " MiB allocation); the feasibility formula admitted "
                           "the solve but the allocation failed"),
        n_(n),
        level_(level),
        bytes_(bytes) {}
  std::size_t universe_size() const { return n_; }
  std::size_t level() const { return level_; }
  /// Size of the allocation that failed.
  std::size_t frontier_bytes() const { return bytes_; }

 private:
  std::size_t n_;
  std::size_t level_;
  std::size_t bytes_;
};

/// Default kernel memory budget: 8 GiB, which admits PPC/Yao up to n = 19
/// and PC (1-byte states) up to n = 21; the hard ceiling is the n <= 22 of
/// the characteristic table.
inline constexpr std::size_t kDefaultDpMemoryLimit = 8ULL << 30;

struct DpOptions {
  /// Worker threads for the level evaluation; 0 means all hardware
  /// threads.  Results are bit-identical for any value.
  std::size_t threads = 0;
  /// Keep the per-level argmin tables (3^n bytes) so the full optimal
  /// strategy can be read back; otherwise only the root argmin is kept.
  bool record_policy = false;
  /// Rejection threshold for dp_peak_bytes(); see require_dp_feasible().
  std::size_t memory_limit_bytes = kDefaultDpMemoryLimit;
};

/// Number of knowledge states at level k: C(n,k) * 2^k.
std::size_t dp_state_count(std::size_t n, std::size_t k);

/// The kernel's frontier for universe size n: one allocation of states()
/// slots, even levels at offset 0 and odd levels after the largest even
/// one.  Because C(n,k) * 2^k is unimodal in k, states() equals the
/// largest adjacent level pair, so the split costs no memory.
struct DpFrontierLayout {
  std::size_t even_states = 0;  ///< max over even k of dp_state_count(n, k)
  std::size_t odd_states = 0;   ///< max over odd k of dp_state_count(n, k)
  std::size_t states() const { return even_states + odd_states; }
  std::size_t offset(std::size_t k) const {
    return k % 2 == 0 ? 0 : even_states;
  }
};

DpFrontierLayout dp_frontier_layout(std::size_t n);

/// Peak bytes the kernel needs for universe size n: the frontier's
/// dp_frontier_layout(n).states() times the per-state payload (value_bytes,
/// plus 8 weight bytes for weighted policies), plus the 2^n characteristic
/// table, plus 3^n argmin bytes when recording the policy.
std::size_t dp_peak_bytes(std::size_t n, std::size_t value_bytes,
                          bool weighted, bool record_policy);

/// The centralized universe-size guard of the exact layer: throws
/// std::invalid_argument when n > 22 (characteristic table) or when
/// dp_peak_bytes() exceeds `memory_limit_bytes`, with a message that spells
/// out the cap formula.  All exact adapters (pc_exact, ppc_exact,
/// yao_bound, optimal_ppc_tree) funnel through this one check.
void require_dp_feasible(std::size_t n, std::size_t value_bytes, bool weighted,
                         bool record_policy, std::size_t memory_limit_bytes);

namespace detail {

/// Colexicographic rank of `mask` among all masks of equal popcount.
std::size_t colex_rank(std::uint64_t mask);

/// Inverse of colex_rank for popcount `k`.
std::uint64_t colex_unrank(std::size_t rank, std::size_t k);

/// Packs the bits of `sub` (a submask of `mask`) into the low popcount(mask)
/// positions.
std::uint32_t compress_submask(std::uint64_t sub, std::uint64_t mask);

/// Next mask of the same popcount in increasing numeric (= colex) order.
std::uint64_t next_same_popcount(std::uint64_t mask);

}  // namespace detail

// ---------------------------------------------------------------------------
// Transition policies.

/// PC(S): the probed element is colored by an adversary, so a probe costs
/// one plus the worse child.  Values fit a byte (PC <= n+1 <= 23), which
/// quarters the frontier memory relative to the expectation policies.
struct MinimaxPolicy {
  using Value = std::uint8_t;
  static constexpr bool kWeighted = false;
  Value terminal_value() const { return 0; }
  Value init_value(std::size_t n) const { return static_cast<Value>(n + 1); }
  Value probe_cost(Value green, Value red) const {
    return static_cast<Value>(1 + (green > red ? green : red));
  }
};

/// PPC_p(S): each element is red independently with probability p, so a
/// probe costs one plus the expectation over the two children.  The
/// arithmetic matches the recursive solver term for term (1 + q*green +
/// p*red, min taken in ascending element order), so values are
/// bit-identical to the legacy engine.
struct ExpectationPolicy {
  using Value = double;
  static constexpr bool kWeighted = false;
  explicit ExpectationPolicy(double p) : p_(p), q_(1.0 - p) {}
  Value terminal_value() const { return 0.0; }
  Value init_value(std::size_t n) const { return static_cast<double>(n) + 1.0; }
  Value probe_cost(Value green, Value red) const {
    return 1.0 + q_ * green + p_ * red;
  }

 private:
  double p_;
  double q_;
};

/// Yao bounds: the best deterministic strategy against an explicit coloring
/// distribution.  The conditional green/red probabilities of a state are
/// ratios of consistent-support weights; the kernel supplies them as the
/// child states' total weights, which it tabulates level by level (the
/// colorings consistent with (P, G) and coloring e green are exactly those
/// consistent with (P+e, G+e)).
struct DistributionPolicy {
  using Value = double;
  static constexpr bool kWeighted = true;
  explicit DistributionPolicy(const ColoringDistribution& distribution) {
    support_.reserve(distribution.size());
    weight_.reserve(distribution.size());
    for (std::size_t i = 0; i < distribution.size(); ++i) {
      support_.push_back(distribution.coloring(i).greens().to_mask());
      weight_.push_back(distribution.weight(i));
    }
  }
  Value terminal_value() const { return 0.0; }
  Value init_value(std::size_t n) const { return static_cast<double>(n) + 1.0; }
  /// `green_weight` / `red_weight` are the consistent-support masses of the
  /// two children; a zero-mass child is unreachable and contributes
  /// nothing (its stored value is a placeholder that must not be read).
  Value probe_cost(Value green, Value red, double green_weight,
                   double red_weight) const {
    const double total = green_weight + red_weight;
    double cost = 1.0;
    if (green_weight > 0.0) cost += green_weight / total * green;
    if (red_weight > 0.0) cost += red_weight / total * red;
    return cost;
  }
  const std::vector<std::uint64_t>& support() const { return support_; }
  const std::vector<double>& weights() const { return weight_; }

 private:
  std::vector<std::uint64_t> support_;
  std::vector<double> weight_;
};

// ---------------------------------------------------------------------------

/// Marker stored in the argmin tables for states that are terminal (no
/// probe is made).
inline constexpr std::uint8_t kDpNoProbe = 0xFF;

template <class Policy>
class DpKernel {
 public:
  using Value = typename Policy::Value;

  /// Checks feasibility, builds the characteristic table, and runs the
  /// full backward induction; accessors below read the solved state.
  DpKernel(const QuorumSystem& system, Policy policy, DpOptions options = {});

  std::size_t universe_size() const { return n_; }
  const CharTable& char_table() const { return *table_; }

  /// V(empty state): the exact complexity value.
  Value root_value() const { return root_value_; }

  /// The Bellman argmin at the root (smallest element achieving the
  /// minimum); universe_size() when the root is already terminal.
  std::size_t root_probe() const { return root_probe_; }

  /// The recorded argmin element of any knowledge state; universe_size()
  /// for terminal states.  Requires DpOptions::record_policy.
  std::size_t policy_probe(std::uint64_t probed, std::uint64_t greens) const;

 private:
  /// One level's slice of the frontier (weights only for weighted
  /// policies).
  struct Level {
    Value* values;
    double* weights;
  };

  void solve();
  void scatter_weights_range(std::size_t k, std::size_t block_begin,
                             std::size_t block_end, double* weights) const;
  void evaluate_states(std::size_t k, std::size_t state_begin,
                       std::size_t state_end, Level next, Level cur,
                       std::uint8_t* argmin);

  Policy policy_;
  DpOptions options_;
  std::size_t n_ = 0;
  std::unique_ptr<CharTable> table_;
  Value root_value_{};
  std::size_t root_probe_ = 0;
  /// argmin_tables_[k] has one entry per level-k state (record_policy).
  std::vector<std::unique_ptr<std::uint8_t[]>> argmin_tables_;
};

extern template class DpKernel<MinimaxPolicy>;
extern template class DpKernel<ExpectationPolicy>;
extern template class DpKernel<DistributionPolicy>;

}  // namespace qps::exact
