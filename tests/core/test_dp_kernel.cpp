// The unified Bellman DP kernel: differential tests against the legacy
// recursive solvers and a per-state reference argmin, thread-count
// bit-identity, the frontier layout, the per-thread frontier block reused
// across solves, and the centralized memory guard, and the combinatorial
// ranking that backs the dense state layout.
#include "core/exact/dp_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine/parallel_estimator.h"
#include "core/exact/decision_tree.h"
#include "core/exact/pc_exact.h"
#include "core/exact/ppc_exact.h"
#include "core/exact/yao_bound.h"
#include "core/obs/metrics.h"
#include "util/stats.h"
#include "quorum/crumbling_wall.h"
#include "quorum/grid_system.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"
#include "quorum/wheel.h"
#include "tests/support/legacy_recursive.h"

namespace qps {
namespace {

/// Every seed family at sizes the legacy recursion can still reach.
std::vector<std::unique_ptr<QuorumSystem>> seed_family_systems() {
  std::vector<std::unique_ptr<QuorumSystem>> systems;
  for (std::size_t n : {1u, 3u, 5u, 7u, 9u, 11u})
    systems.push_back(std::make_unique<MajoritySystem>(n));
  for (std::size_t n : {4u, 6u, 8u, 12u})
    systems.push_back(std::make_unique<WheelSystem>(n));
  for (const auto& widths : std::vector<std::vector<std::size_t>>{
           {1, 2}, {1, 2, 3}, {1, 3, 2}, {1, 2, 2, 2}})
    systems.push_back(std::make_unique<CrumblingWall>(widths));
  for (std::size_t h : {1u, 2u})
    systems.push_back(std::make_unique<TreeSystem>(h));
  for (std::size_t h : {1u, 2u})
    systems.push_back(std::make_unique<HQSystem>(h));
  systems.push_back(std::make_unique<GridSystem>(3, 4));
  return systems;
}

TEST(DpKernel, PcMatchesLegacyRecursionOnSeedFamilies) {
  for (const auto& system : seed_family_systems())
    EXPECT_EQ(pc_exact(*system), exact::legacy::pc_exact_recursive(*system))
        << system->name();
}

TEST(DpKernel, PpcIsBitIdenticalToLegacyRecursionOnSeedFamilies) {
  // The kernel evaluates 1 + q*V(green) + p*V(red) with the same operation
  // order and the same ascending-element min as the recursion, so values
  // match to the last bit, not just to a tolerance.
  for (const auto& system : seed_family_systems()) {
    for (double p : {0.0, 0.1, 0.3, 0.5, 0.8, 1.0}) {
      EXPECT_EQ(ppc_exact(*system, p),
                exact::legacy::ppc_exact_recursive(*system, p))
          << system->name() << " p=" << p;
    }
  }
  // One size above the seed families, near the recursion's n <= 14 cap.
  const MajoritySystem maj13(13);
  EXPECT_EQ(ppc_exact(maj13, 0.3),
            exact::legacy::ppc_exact_recursive(maj13, 0.3));
}

TEST(DpKernel, RootPolicyMatchesLegacyFirstProbe) {
  for (const auto& system : seed_family_systems()) {
    for (double p : {0.3, 0.5}) {
      EXPECT_EQ(ppc_optimal_first_probe(*system, p),
                exact::legacy::ppc_optimal_first_probe_recursive(*system, p))
          << system->name() << " p=" << p;
    }
  }
}

TEST(DpKernel, YaoMatchesLegacyRecursionOnPaperDistributions) {
  // The weighted policy's conditional probabilities come from tabulated
  // child masses; summation order differs from the recursion, so agreement
  // is to floating-point tolerance rather than bitwise.
  for (std::size_t n : {3u, 5u, 7u, 9u}) {
    const MajoritySystem maj(n);
    const auto hard = maj_hard_distribution(n);
    EXPECT_NEAR(yao_bound(maj, hard),
                exact::legacy::yao_bound_recursive(maj, hard), 1e-12)
        << "maj n=" << n;
  }
  for (const auto& widths : std::vector<std::vector<std::size_t>>{
           {1, 2}, {1, 2, 3}, {1, 3, 2}, {1, 2, 2, 2}}) {
    const CrumblingWall wall(widths);
    const auto hard = cw_hard_distribution(wall);
    EXPECT_NEAR(yao_bound(wall, hard),
                exact::legacy::yao_bound_recursive(wall, hard), 1e-12)
        << wall.name();
  }
  for (std::size_t h : {1u, 2u}) {
    const TreeSystem tree(h);
    const auto hard = tree_hard_distribution(tree);
    EXPECT_NEAR(yao_bound(tree, hard),
                exact::legacy::yao_bound_recursive(tree, hard), 1e-12)
        << "tree h=" << h;
  }
}

TEST(DpKernel, ResultsAreBitIdenticalAcrossThreadCounts) {
  const MajoritySystem maj(11);
  const CrumblingWall wall({1, 3, 4});
  // n = 13: blocks of 2^13 states and more are split across the kernel's
  // 4096-state chunks, so each chunk folds a partial block.
  const MajoritySystem maj13(13);
  exact::DpOptions one;
  one.threads = 1;
  for (std::size_t threads : {2u, 4u, 7u}) {
    exact::DpOptions many;
    many.threads = threads;
    for (double p : {0.3, 0.5}) {
      EXPECT_EQ(ppc_exact(maj, p, one), ppc_exact(maj, p, many))
          << "threads=" << threads << " p=" << p;
      EXPECT_EQ(ppc_exact(wall, p, one), ppc_exact(wall, p, many))
          << "threads=" << threads << " p=" << p;
    }
    EXPECT_EQ(pc_exact(maj, one), pc_exact(maj, many));
    const auto hard = maj_hard_distribution(9);
    const MajoritySystem maj9(9);
    EXPECT_EQ(yao_bound(maj9, hard, one), yao_bound(maj9, hard, many))
        << "threads=" << threads;
  }
  exact::DpOptions four;
  four.threads = 4;
  EXPECT_EQ(ppc_exact(maj13, 0.3, one), ppc_exact(maj13, 0.3, four));
  EXPECT_EQ(pc_exact(maj13, one), pc_exact(maj13, four));
  // The recorded argmin of every state, through the tree it materializes.
  EXPECT_EQ(optimal_ppc_tree(maj13, 0.3, one)->to_ascii(),
            optimal_ppc_tree(maj13, 0.3, four)->to_ascii());
  EXPECT_EQ(optimal_ppc_tree(wall, 0.5, one)->to_ascii(),
            optimal_ppc_tree(wall, 0.5, four)->to_ascii());
}

/// Per-state Bellman reference for PPC_p: memoized over (probed, greens),
/// the kernel's arithmetic 1 + q*V(green) + p*V(red), elements ascending,
/// strict < from the init value n + 1.
class BellmanReference {
 public:
  BellmanReference(const QuorumSystem& system, double p)
      : table_(system),
        n_(system.universe_size()),
        p_(p),
        q_(1.0 - p),
        value_(std::size_t{1} << (2 * n_), -1.0),
        argmin_(value_.size(), n_) {}

  double value(std::uint64_t probed, std::uint64_t greens) {
    const std::size_t index = (probed << n_) | greens;
    if (value_[index] >= 0.0) return value_[index];
    double best = 0.0;
    std::size_t arg = n_;
    if (!table_.is_terminal(probed, greens)) {
      best = static_cast<double>(n_) + 1.0;
      for (std::size_t e = 0; e < n_; ++e) {
        const std::uint64_t bit = 1ULL << e;
        if (probed & bit) continue;
        const double candidate = 1.0 + q_ * value(probed | bit, greens | bit) +
                                 p_ * value(probed | bit, greens);
        if (candidate < best) {
          best = candidate;
          arg = e;
        }
      }
    }
    argmin_[index] = arg;
    return value_[index] = best;
  }

  std::size_t argmin(std::uint64_t probed, std::uint64_t greens) {
    value(probed, greens);
    return argmin_[(probed << n_) | greens];
  }

 private:
  CharTable table_;
  std::size_t n_;
  double p_;
  double q_;
  std::vector<double> value_;
  std::vector<std::size_t> argmin_;
};

TEST(DpKernel, RecordedPolicyIsTheSmallestBellmanArgmin) {
  // Ties are common (symmetric systems have many optimal probes), so this
  // pins the tie-break on every state, not just at the root.
  std::vector<std::unique_ptr<QuorumSystem>> systems;
  systems.push_back(std::make_unique<MajoritySystem>(7));
  systems.push_back(std::make_unique<WheelSystem>(8));
  systems.push_back(
      std::make_unique<CrumblingWall>(std::vector<std::size_t>{1, 2, 2}));
  systems.push_back(std::make_unique<HQSystem>(2));
  for (const auto& system : systems) {
    const std::size_t n = system->universe_size();
    for (double p : {0.3, 0.5}) {
      exact::DpOptions options;
      options.record_policy = true;
      const exact::DpKernel<exact::ExpectationPolicy> kernel(
          *system, exact::ExpectationPolicy(p), options);
      BellmanReference reference(*system, p);
      EXPECT_EQ(kernel.root_value(), reference.value(0, 0))
          << system->name() << " p=" << p;
      std::size_t checked = 0;
      for (std::uint64_t probed = 0; probed < (1ULL << n); ++probed) {
        for (std::uint64_t greens = probed;; greens = (greens - 1) & probed) {
          if (!kernel.char_table().is_terminal(probed, greens)) {
            ASSERT_EQ(kernel.policy_probe(probed, greens),
                      reference.argmin(probed, greens))
                << system->name() << " p=" << p << " probed=" << probed
                << " greens=" << greens;
            ++checked;
          }
          if (greens == 0) break;
        }
      }
      EXPECT_GT(checked, 0u) << system->name();
    }
  }
}

TEST(DpKernel, PpcAgreesWithMonteCarloOptimalStrategy) {
  // The kernel's optimum must match a Monte-Carlo run of its own extracted
  // optimal decision tree within sampling error (4 x SEM).
  const MajoritySystem maj(7);
  for (double p : {0.3, 0.5}) {
    const double optimum = ppc_exact(maj, p);
    const auto tree = optimal_ppc_tree(maj, p);
    EngineOptions options;
    options.trials = 40000;
    options.threads = 2;
    const ParallelEstimator engine(options);
    const RunningStats stats = engine.run([&](Rng& rng) {
      const Coloring coloring = sample_iid_coloring(7, p, rng);
      return static_cast<std::uint32_t>(tree->evaluate(coloring).second);
    });
    EXPECT_NEAR(stats.mean(), optimum,
                std::max(4.0 * stats.sem(), 1e-9))
        << "p=" << p;
  }
}

TEST(DpKernel, StateCountsSumToPowersOfThree) {
  for (std::size_t n : {1u, 4u, 9u, 14u}) {
    std::size_t total = 0;
    for (std::size_t k = 0; k <= n; ++k) total += exact::dp_state_count(n, k);
    std::size_t expected = 1;
    for (std::size_t i = 0; i < n; ++i) expected *= 3;
    EXPECT_EQ(total, expected) << "n=" << n;
  }
}

TEST(DpKernel, FrontierLayoutIsTheLargestAdjacentLevelPair) {
  // The kernel allocates one parity-split frontier; since C(n,k) * 2^k is
  // unimodal in k it equals the largest adjacent level pair, the peak the
  // memory formula charges for.
  for (std::size_t n = 1; n <= 22; ++n) {
    std::size_t pair = 0;
    for (std::size_t k = 0; k < n; ++k)
      pair = std::max(pair, exact::dp_state_count(n, k) +
                                exact::dp_state_count(n, k + 1));
    const exact::DpFrontierLayout layout = exact::dp_frontier_layout(n);
    EXPECT_EQ(layout.states(), pair) << "n=" << n;
    EXPECT_EQ(layout.offset(0), 0u);
    EXPECT_EQ(layout.offset(1), layout.even_states);
    for (std::size_t k = 0; k <= n; ++k)
      EXPECT_LE(exact::dp_state_count(n, k),
                k % 2 == 0 ? layout.even_states : layout.odd_states)
          << "n=" << n << " k=" << k;
    EXPECT_EQ(exact::dp_peak_bytes(n, sizeof(double), false, false),
              pair * sizeof(double) + (std::size_t{1} << n))
        << "n=" << n;
  }
  // Under the default 8 GiB budget: PPC and Yao up to n = 19, PC up to 21.
  const std::size_t limit = exact::kDefaultDpMemoryLimit;
  EXPECT_LE(exact::dp_peak_bytes(19, sizeof(double), false, false), limit);
  EXPECT_GT(exact::dp_peak_bytes(20, sizeof(double), false, false), limit);
  EXPECT_LE(exact::dp_peak_bytes(19, sizeof(double), true, false), limit);
  EXPECT_GT(exact::dp_peak_bytes(20, sizeof(double), true, false), limit);
  EXPECT_LE(exact::dp_peak_bytes(21, 1, false, false), limit);
  EXPECT_GT(exact::dp_peak_bytes(22, 1, false, false), limit);
}

TEST(DpKernel, MemoryGuardStatesTheCapFormula) {
  // A deliberately tiny budget trips the centralized guard; the message
  // must spell out the formula and the knob.
  try {
    exact::require_dp_feasible(14, sizeof(double), false, false,
                               1 << 20);  // 1 MiB
    FAIL() << "expected the memory guard to throw";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("C(n,k)*2^k"), std::string::npos) << message;
    EXPECT_NE(message.find("memory_limit_bytes"), std::string::npos)
        << message;
  }
  // The default budget admits the sizes the acceptance bar names.
  EXPECT_NO_THROW(exact::require_dp_feasible(18, sizeof(double), false, false,
                                             exact::kDefaultDpMemoryLimit));
  EXPECT_NO_THROW(exact::require_dp_feasible(
      18, sizeof(std::uint8_t), false, false, exact::kDefaultDpMemoryLimit));
  // And the hard characteristic-table ceiling still holds.
  EXPECT_THROW(exact::require_dp_feasible(23, 1, false, false,
                                          exact::kDefaultDpMemoryLimit),
               std::invalid_argument);
}

TEST(DpKernel, MemoryGuardIsEnforcedThroughTheAdapters) {
  exact::DpOptions starved;
  starved.memory_limit_bytes = 1 << 16;  // 64 KiB: too small for n = 11
  EXPECT_THROW(ppc_exact(MajoritySystem(11), 0.5, starved),
               std::invalid_argument);
  EXPECT_THROW(pc_exact(MajoritySystem(13), starved), std::invalid_argument);
  // yao_bound has no fallback: a size the budget rejects is the same typed
  // error, not a slower second engine.
  EXPECT_THROW(yao_bound(MajoritySystem(9), maj_hard_distribution(9), starved),
               std::invalid_argument);
}

/// A value's exact bits, readable in a failure message.
std::string hex(double value) {
  std::ostringstream os;
  os << std::hexfloat << value;
  return os.str();
}

/// Runs `solve` on a new thread, whose frontier block starts empty.
std::string on_fresh_thread(const std::function<std::string()>& solve) {
  std::string result;
  std::thread([&] { result = solve(); }).join();
  return result;
}

obs::Counter& frontier_allocs() {
  return obs::MetricsRegistry::instance().counter("exact/frontier_allocs");
}

TEST(DpKernel, ReusedFrontierNeverReadsStaleValues) {
  // Policies mixed and n shrinking: every solve after the first runs on a
  // larger block still holding another solve's values.
  exact::DpOptions options;
  options.threads = 2;
  const WheelSystem wheel14(14);
  const MajoritySystem maj13(13);
  const MajoritySystem maj9(9);
  const MajoritySystem maj11(11);
  const auto hard9 = maj_hard_distribution(9);
  const std::vector<std::function<std::string()>> solves = {
      [&] { return hex(ppc_exact(wheel14, 0.3, options)); },
      [&] { return std::to_string(pc_exact(maj13, options)); },
      [&] { return hex(yao_bound(maj9, hard9, options)); },
      [&] { return optimal_ppc_tree(maj11, 0.4, options)->to_ascii(); },
  };
  std::vector<std::string> reused;
  std::thread([&] {
    for (const auto& solve : solves) reused.push_back(solve());
  }).join();
  ASSERT_EQ(reused.size(), solves.size());
  for (std::size_t i = 0; i < solves.size(); ++i)
    EXPECT_EQ(reused[i], on_fresh_thread(solves[i])) << "solve " << i;
}

TEST(DpKernel, FrontierGrowsOnlyWhenASolveNeedsMore) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "metrics writes compiled out";
  const MajoritySystem maj9(9);
  const MajoritySystem maj11(11);
  std::thread([&] {
    std::uint64_t seen = frontier_allocs().value();
    const auto grown = [&] {
      const std::uint64_t now = frontier_allocs().value();
      const std::uint64_t delta = now - seen;
      seen = now;
      return delta;
    };
    ppc_exact(maj9, 0.3);
    EXPECT_EQ(grown(), 1u) << "a new thread maps its first block";
    ppc_exact(maj9, 0.5);
    EXPECT_EQ(grown(), 0u) << "a repeated solve reuses it";
    pc_exact(maj9);
    EXPECT_EQ(grown(), 0u) << "1-byte states fit the same block";
    ppc_exact(maj11, 0.3);
    EXPECT_EQ(grown(), 1u) << "a larger solve grows it once";
    ppc_exact(maj9, 0.3);
    EXPECT_EQ(grown(), 0u) << "a smaller solve reuses the larger block";
  }).join();
}

TEST(DpKernel, AMemoryLimitBelowTheRetainedBlockReleasesItFirst) {
  if (!obs::kMetricsCompiled) GTEST_SKIP() << "metrics writes compiled out";
  const MajoritySystem maj9(9);
  const MajoritySystem maj13(13);
  const std::string clean =
      on_fresh_thread([&] { return hex(ppc_exact(maj9, 0.3)); });
  exact::DpOptions tight;
  tight.memory_limit_bytes =
      exact::dp_peak_bytes(9, sizeof(double), false, false);
  ASSERT_LT(tight.memory_limit_bytes,
            exact::dp_frontier_layout(13).states() * sizeof(double));
  std::thread([&] {
    ppc_exact(maj13, 0.3);
    const std::uint64_t before = frontier_allocs().value();
    // Maj13's block exceeds the cap: it is released and a Maj9 one mapped.
    EXPECT_EQ(hex(ppc_exact(maj9, 0.3, tight)), clean);
    EXPECT_EQ(frontier_allocs().value() - before, 1u);
    // The Maj9 block is within the default cap and is reused.
    EXPECT_EQ(hex(ppc_exact(maj9, 0.3)), clean);
    EXPECT_EQ(frontier_allocs().value() - before, 1u);
  }).join();
}

TEST(DpKernel, ConcurrentSolvesMatchTheirSequentialResults) {
  // Two threads, two block sizes, each solving while the other does.
  exact::DpOptions options;
  options.threads = 2;
  const MajoritySystem maj13(13);
  const WheelSystem wheel10(10);
  const std::vector<double> ps = {0.1, 0.3, 0.5, 0.7};
  const auto run = [&](const QuorumSystem& system) {
    std::vector<std::string> values;
    for (double p : ps) {
      values.push_back(hex(ppc_exact(system, p, options)));
      values.push_back(std::to_string(pc_exact(system, options)));
    }
    return values;
  };
  const std::vector<std::string> maj_sequential = run(maj13);
  const std::vector<std::string> wheel_sequential = run(wheel10);
  std::vector<std::string> maj_concurrent;
  std::vector<std::string> wheel_concurrent;
  std::thread maj_thread([&] { maj_concurrent = run(maj13); });
  std::thread wheel_thread([&] { wheel_concurrent = run(wheel10); });
  maj_thread.join();
  wheel_thread.join();
  EXPECT_EQ(maj_concurrent, maj_sequential);
  EXPECT_EQ(wheel_concurrent, wheel_sequential);
}

TEST(DpKernel, ColexRankingRoundTrips) {
  for (std::size_t n : {5u, 9u, 12u}) {
    for (std::size_t k = 0; k <= n; ++k) {
      // Enumerate all C(n,k) masks in numeric order; ranks must be
      // 0,1,2,... and unrank must invert.
      std::size_t rank = 0;
      std::uint64_t mask = k == 0 ? 0 : (1ULL << k) - 1;
      const std::uint64_t limit = 1ULL << n;
      while (mask < limit) {
        EXPECT_EQ(exact::detail::colex_rank(mask), rank);
        EXPECT_EQ(exact::detail::colex_unrank(rank, k), mask);
        ++rank;
        if (k == 0) break;
        mask = exact::detail::next_same_popcount(mask);
      }
      EXPECT_EQ(rank,
                static_cast<std::size_t>(binomial_coefficient(n, k) + 0.5))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(DpKernel, CompressSubmaskPacksGreensDensely) {
  const std::uint64_t probed = 0b1011010;
  // Submasks enumerated descending via (s-1) & probed walk compressed
  // indices 2^k-1 .. 0 in lockstep.
  std::uint32_t expected = (1u << std::popcount(probed)) - 1;
  std::uint64_t sub = probed;
  for (;;) {
    EXPECT_EQ(exact::detail::compress_submask(sub, probed), expected);
    if (sub == 0) break;
    sub = (sub - 1) & probed;
    --expected;
  }
}

TEST(DpKernel, RecordedPolicyCoversEveryReachableState) {
  // With record_policy on, every non-terminal state the optimal tree can
  // reach must report a valid probe element not yet probed.
  const CrumblingWall wall({1, 2, 2});
  exact::DpOptions options;
  options.record_policy = true;
  const exact::DpKernel<exact::ExpectationPolicy> kernel(
      wall, exact::ExpectationPolicy(0.4), options);
  const std::size_t n = wall.universe_size();
  for (std::uint64_t probed = 0; probed < (1ULL << n); ++probed) {
    for (std::uint64_t greens = probed;; greens = (greens - 1) & probed) {
      const std::size_t e = kernel.policy_probe(probed, greens);
      const bool terminal =
          kernel.char_table().is_terminal(probed, greens);
      if (terminal) {
        EXPECT_EQ(e, n) << "probed=" << probed << " greens=" << greens;
      } else {
        ASSERT_LT(e, n) << "probed=" << probed << " greens=" << greens;
        EXPECT_EQ(probed & (1ULL << e), 0u);
      }
      if (greens == 0) break;
    }
  }
}

}  // namespace
}  // namespace qps
