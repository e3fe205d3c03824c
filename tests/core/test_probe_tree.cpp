// Probe_Tree (Prop. 3.6) and R_Probe_Tree (Thms 4.7, 4.8).
#include "core/algorithms/probe_tree.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator.h"
#include "core/expectation.h"
#include "core/formulas.h"
#include "quorum/availability.h"

namespace qps {
namespace {

TEST(ProbeTreeTest, SingleNodeTree) {
  const TreeSystem tree(0);
  const ProbeTree strategy(tree);
  Rng rng(1);
  const Coloring c(1, ElementSet(1, {0}));
  ProbeSession s(c);
  const Witness w = strategy.run(s, rng);
  EXPECT_EQ(w.color, Color::kGreen);
  EXPECT_EQ(s.probe_count(), 1u);
}

TEST(ProbeTreeTest, AllGreenProbesRootPath) {
  // All green: the root and the right-subtree recursion agree at every
  // level, so exactly h+1 probes happen (root + right spine... each level
  // probes its root then recurses into one subtree).
  const TreeSystem tree(3);
  const ProbeTree strategy(tree);
  Rng rng(1);
  const Coloring c(15, ElementSet::full(15));
  ProbeSession s(c);
  const Witness w = strategy.run(s, rng);
  EXPECT_EQ(w.color, Color::kGreen);
  EXPECT_EQ(s.probe_count(), 4u);  // h + 1
  EXPECT_EQ(w.elements.count(), 4u);  // a root-to-leaf path quorum
}

TEST(ProbeTreeTest, AverageMatchesExactRecursion) {
  EngineOptions options;
  options.trials = 40000;
  options.threads = 1;
  options.seed = 21;
  for (std::size_t h : {2u, 4u, 6u}) {
    const TreeSystem tree(h);
    const ProbeTree strategy(tree);
    for (double p : {0.5, 0.3}) {
      const auto stats = estimate_ppc(tree, strategy, p, options);
      const double exact = probe_tree_expected(h, p);
      EXPECT_NEAR(stats.mean(), exact, 4 * stats.ci95_halfwidth())
          << "h=" << h << " p=" << p;
    }
  }
}

TEST(ProbeTreeTest, GrowthRateMatchesCorollary37) {
  // T(h)/T(h-1) -> 1 + p + (q - p) F where F -> 1/2 for p = 1/2, i.e. 3/2
  // per level: cost ~ n^{log2 1.5} = n^0.585.
  const double t8 = probe_tree_expected(8, 0.5);
  const double t9 = probe_tree_expected(9, 0.5);
  EXPECT_NEAR(t9 / t8, 1.5, 0.02);
  // For p = 0.3 the per-level factor approaches 1 + p = 1.3 from above
  // (Prop. 3.6: O(n^{log2(1+p)})).
  const double u12 = probe_tree_expected(12, 0.3);
  const double u13 = probe_tree_expected(13, 0.3);
  EXPECT_NEAR(u13 / u12, 1.3, 0.03);
}

TEST(ProbeTreeTest, SymmetricInPAndQ) {
  for (std::size_t h : {2u, 5u})
    for (double p : {0.1, 0.3})
      EXPECT_NEAR(probe_tree_expected(h, p), probe_tree_expected(h, 1 - p),
                  1e-9);
}

TEST(ProbeTreeTest, CheaperThanEvasiveDeterministicBound) {
  // PC(Tree) = n in the worst case (Lemma 2.2) but the probabilistic cost
  // is polynomially smaller: within a small constant of n^0.585, and a
  // vanishing fraction of n.
  const std::size_t h = 14;
  const double n = std::pow(2.0, h + 1.0) - 1.0;
  const double cost = probe_tree_expected(h, 0.5);
  EXPECT_LT(cost, 5.0 * std::pow(n, tree_ppc_exponent(0.5)));
  EXPECT_LT(cost, 0.05 * n);
}

TEST(RProbeTreeTest, ExpectationEvaluatorMatchesMonteCarlo) {
  const TreeSystem tree(3);
  const RProbeTree strategy(tree);
  EngineOptions options;
  options.trials = 60000;
  options.threads = 1;
  options.seed = 31;
  for (std::uint64_t mask : {0ULL, 0x7FFFULL, 0x5A5AULL, 0x1234ULL}) {
    const Coloring c(15, ElementSet::from_mask(15, mask));
    const auto stats = expected_probes_on(tree, strategy, c, options);
    const double exact = r_probe_tree_expectation(tree, c);
    EXPECT_NEAR(stats.mean(), exact, 4 * stats.ci95_halfwidth())
        << "mask=" << mask;
  }
}

TEST(RProbeTreeTest, Theorem47BoundHoldsExhaustively) {
  // E[probes] <= 5n/6 + 1/6 on every coloring (exhaustive for h <= 3).
  for (std::size_t h : {1u, 2u, 3u}) {
    const TreeSystem tree(h);
    const std::size_t n = tree.universe_size();
    const double bound = r_probe_tree_bound(n);
    const std::uint64_t limit = 1ULL << n;
    double worst = 0;
    for (std::uint64_t mask = 0; mask < limit; ++mask) {
      const Coloring c(n, ElementSet::from_mask(n, mask));
      worst = std::max(worst, r_probe_tree_expectation(tree, c));
    }
    EXPECT_LE(worst, bound + 1e-9) << "h=" << h;
    // The randomized algorithm beats the deterministic worst case n.
    EXPECT_LT(worst, static_cast<double>(n)) << "h=" << h;
    // And the lower bound 2(n+1)/3 of Thm 4.8 is below the bound.
    EXPECT_GE(bound, tree_randomized_lower_bound(n));
  }
}

TEST(RProbeTreeTest, AllRedIsCheapForRandomized) {
  // On the all-red input each node agrees with its subtree witnesses, so
  // only plans that pay the extra subtree cost anything: growth is 4/3 + 2/3
  // per level, well below the worst case.
  const TreeSystem tree(6);
  const Coloring all_red(tree.universe_size());
  const double cost = r_probe_tree_expectation(tree, all_red);
  EXPECT_LT(cost, 0.55 * static_cast<double>(tree.universe_size()));
}

}  // namespace
}  // namespace qps
