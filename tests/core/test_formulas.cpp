// The paper's closed forms and exponents (Table 1 constants).
#include "core/formulas.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/exact/ppc_exact.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"

namespace qps {
namespace {

// Sum over all 2^n colorings of p^reds (1-p)^greens * value(coloring),
// accumulated in long double: a plain double sum of 2^13 terms drifts by
// about 1e-12 on its own.
double enumerate_iid(std::size_t n, double p,
                     const std::function<double(const Coloring&)>& value) {
  long double total = 0.0;
  for (std::uint64_t greens = 0; greens < (1ULL << n); ++greens) {
    const Coloring coloring(n, ElementSet::from_mask(n, greens));
    const double weight =
        std::pow(p, static_cast<double>(coloring.red_count())) *
        std::pow(1.0 - p, static_cast<double>(coloring.green_count()));
    total += weight * value(coloring);
  }
  return static_cast<double>(total);
}

// Probes a deterministic strategy makes on one coloring.
double probes_on(const ProbeStrategy& strategy, const Coloring& coloring) {
  Rng unused(0);
  ProbeSession session(coloring);
  strategy.run(session, unused);
  return static_cast<double>(session.probe_count());
}

// R_Probe_Maj on a coloring with `reds` reds, from first principles: draw
// elements without replacement until one color has (n+1)/2 members.
double urn_stopping_time(std::size_t n, std::size_t reds) {
  const std::size_t need = (n + 1) / 2;
  std::function<double(std::size_t, std::size_t)> remaining =
      [&](std::size_t r, std::size_t g) -> double {
    if (r == need || g == need) return 0.0;
    const auto left = static_cast<double>(n - r - g);
    const double p_red = static_cast<double>(reds - r) / left;
    double cost = 1.0;
    if (reds > r) cost += p_red * remaining(r + 1, g);
    if (n - reds > g) cost += (1.0 - p_red) * remaining(r, g + 1);
    return cost;
  };
  return remaining(0, 0);
}

const std::vector<double> kGridPs = {0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9, 0.37};

TEST(Formulas, ProbeMajExpectedEqualsGridWalk) {
  // Spot value: n = 3, p = 1/2 -> grid walk with N = 2: 2.5 probes.
  EXPECT_DOUBLE_EQ(probe_maj_expected(3, 0.5), 2.5);
  EXPECT_THROW(probe_maj_expected(4, 0.5), std::invalid_argument);
}

TEST(Formulas, ProbeCwBoundIs2kMinus1) {
  EXPECT_DOUBLE_EQ(probe_cw_bound(1), 1.0);
  EXPECT_DOUBLE_EQ(probe_cw_bound(4), 7.0);
}

TEST(Formulas, ProbeCwExpectedValidation) {
  EXPECT_THROW(probe_cw_expected({2, 3}, 0.5), std::invalid_argument);
  EXPECT_THROW(probe_cw_expected({1, 2}, 0.0), std::invalid_argument);
}

TEST(Formulas, ProbeCwRowTwoCostIsTwoAtHalf) {
  // At p = 1/2 with a deep row the per-row cost approaches exactly 2
  // (mode-weighted geometric means); a (1, big) wall costs ~3.
  EXPECT_NEAR(probe_cw_expected({1, 30}, 0.5), 3.0, 1e-6);
}

TEST(Formulas, ProbeTreeBaseCases) {
  EXPECT_DOUBLE_EQ(probe_tree_expected(0, 0.5), 1.0);
  // h=1: 1 + (1 + q F(0) + p (1-F(0))) with F(0) = p:
  // p=1/2: 1 + (1 + 1/4 + 1/4) * 1 = 2.5.
  EXPECT_DOUBLE_EQ(probe_tree_expected(1, 0.5), 2.5);
}

TEST(Formulas, ProbeHqsBaseCases) {
  EXPECT_DOUBLE_EQ(probe_hqs_expected(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(probe_hqs_expected(1, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(probe_hqs_expected(2, 0.5), 6.25);
  EXPECT_DOUBLE_EQ(probe_hqs_expected(3, 0.5), 15.625);
}

TEST(Formulas, RProbeMajWorstCaseClosedForm) {
  EXPECT_EQ(r_probe_maj_worst_case(3), Rational(8, 3));
  // n=5: 5 - 4/8 = 4.5.
  EXPECT_EQ(r_probe_maj_worst_case(5), Rational(9, 2));
  // n=7: 7 - 6/10 = 6.4 = 32/5.
  EXPECT_EQ(r_probe_maj_worst_case(7), Rational(32, 5));
}

TEST(Formulas, RProbeMajExpectedSymmetry) {
  // Swapping reds and greens swaps nothing: the majority color's count
  // determines the cost.
  for (std::size_t n : {5u, 9u})
    for (std::size_t r = 0; r <= n; ++r)
      EXPECT_EQ(r_probe_maj_expected(n, r), r_probe_maj_expected(n, n - r));
}

TEST(Formulas, RProbeCwBoundForWheelIsNMinus1) {
  // Cor. 4.5(2): the j = bottom row term dominates: n_2 = n - 1.
  EXPECT_DOUBLE_EQ(r_probe_cw_bound({1, 7}), 7.0);
}

TEST(Formulas, CwRandomizedLowerBound) {
  EXPECT_DOUBLE_EQ(cw_randomized_lower_bound({1, 2, 3}), 4.5);
  EXPECT_DOUBLE_EQ(cw_randomized_lower_bound({1, 3}), 3.0);
}

TEST(Formulas, TreeRandomizedBounds) {
  EXPECT_DOUBLE_EQ(r_probe_tree_bound(7), 6.0);
  EXPECT_DOUBLE_EQ(tree_randomized_lower_bound(7), 16.0 / 3.0);
  // Upper bound above lower bound (they touch exactly at n = 3, where
  // 5n/6 + 1/6 = 2(n+1)/3 = 8/3 -- the Maj3 game value).
  EXPECT_DOUBLE_EQ(r_probe_tree_bound(3), tree_randomized_lower_bound(3));
  for (std::size_t n : {7u, 15u, 1023u})
    EXPECT_GT(r_probe_tree_bound(n), tree_randomized_lower_bound(n));
}

TEST(Formulas, RProbeMajPpcIsTheBinomialMixtureOfTheUrn) {
  for (std::size_t n = 1; n <= 13; n += 2) {
    std::vector<double> urn(n + 1);
    for (std::size_t r = 0; r <= n; ++r) urn[r] = urn_stopping_time(n, r);
    for (const double p : {0.0, 0.1, 0.25, 0.37, 0.5, 0.8, 0.9, 1.0}) {
      const double brute = enumerate_iid(
          n, p, [&urn](const Coloring& c) { return urn[c.red_count()]; });
      EXPECT_NEAR(r_probe_maj_ppc(n, p), brute, 1e-12)
          << "n=" << n << " p=" << p;
    }
  }
  // Beyond brute force: symmetric in p <-> 1-p, and between the all-one-
  // color cost (n+1)/2 and the Thm 4.2 worst case.
  for (const double p : kGridPs) {
    const double value = r_probe_maj_ppc(63, p);
    EXPECT_NEAR(value, r_probe_maj_ppc(63, 1.0 - p), 1e-9) << "p=" << p;
    EXPECT_GE(value, 32.0);
    EXPECT_LE(value, r_probe_maj_worst_case(63).to_double());
  }
  EXPECT_THROW(r_probe_maj_ppc(4, 0.5), std::invalid_argument);
}

TEST(Formulas, ProbeMajExpectedIsTheExactOptimum) {
  // Any fixed order is optimal for Maj (Prop. 3.2), so the closed form is
  // the DP's PPC_p wherever the DP can solve it.
  for (std::size_t n = 1; n <= 13; n += 2)
    for (const double p : kGridPs)
      EXPECT_NEAR(probe_maj_expected(n, p), ppc_exact(MajoritySystem(n), p),
                  1e-12)
          << "n=" << n << " p=" << p;
}

TEST(Formulas, DetClosedFormsMatchTheAlgorithmsOnEveryColoring) {
  // The closed forms are the algorithms' own PPC_p, enumerated over every
  // coloring with its i.i.d. weight.  Tree and HQS are not optimal, so the
  // DP only bounds them (PpcExact.OptimumBelow*); this pins them exactly.
  for (const double p : kGridPs) {
    for (std::size_t n = 1; n <= 11; n += 2) {
      const MajoritySystem maj(n);
      const ProbeMaj strategy(maj);
      EXPECT_NEAR(probe_maj_expected(n, p),
                  enumerate_iid(n, p, [&](const Coloring& c) {
                    return probes_on(strategy, c);
                  }),
                  1e-12)
          << "Maj" << n << " p=" << p;
    }
    for (std::size_t h = 0; h <= 3; ++h) {
      const TreeSystem tree(h);
      const ProbeTree strategy(tree);
      EXPECT_NEAR(probe_tree_expected(h, p),
                  enumerate_iid(tree.universe_size(), p,
                                [&](const Coloring& c) {
                                  return probes_on(strategy, c);
                                }),
                  1e-12)
          << "Tree h=" << h << " p=" << p;
    }
    for (std::size_t h = 0; h <= 2; ++h) {
      const HQSystem hqs(h);
      const ProbeHQS strategy(hqs);
      EXPECT_NEAR(probe_hqs_expected(h, p),
                  enumerate_iid(hqs.universe_size(), p,
                                [&](const Coloring& c) {
                                  return probes_on(strategy, c);
                                }),
                  1e-12)
          << "HQS h=" << h << " p=" << p;
    }
    // bench_mc_curves' walls, plus a non-monotone one.
    const std::vector<std::vector<std::size_t>> walls = {
        {1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {1, 3, 2}};
    for (const auto& widths : walls) {
      const CrumblingWall wall(widths);
      const ProbeCW strategy(wall);
      EXPECT_NEAR(probe_cw_expected(widths, p),
                  enumerate_iid(wall.universe_size(), p,
                                [&](const Coloring& c) {
                                  return probes_on(strategy, c);
                                }),
                  1e-12)
          << wall.name() << " p=" << p;
    }
  }
}

TEST(Formulas, Table1Exponents) {
  EXPECT_NEAR(hqs_ppc_exponent(), 0.834, 0.001);
  EXPECT_NEAR(hqs_ppc_low_p_exponent(), 0.631, 0.001);
  EXPECT_NEAR(tree_ppc_exponent(0.5), 0.585, 0.001);
  EXPECT_NEAR(hqs_r_probe_exponent(), 0.893, 0.001);
  EXPECT_NEAR(hqs_ir_probe_exponent(), 0.890, 0.001);
  // Symmetry of the tree exponent in p and q.
  EXPECT_DOUBLE_EQ(tree_ppc_exponent(0.3), tree_ppc_exponent(0.7));
}

TEST(Formulas, IrLevelConstant) {
  EXPECT_EQ(ir_probe_hqs_level_constant(), Rational(191, 27));
  // Strictly better than R_Probe_HQS's (8/3)^2 = 7.1111 per two levels.
  EXPECT_LT(ir_probe_hqs_level_constant().to_double(), 64.0 / 9.0);
}

}  // namespace
}  // namespace qps
