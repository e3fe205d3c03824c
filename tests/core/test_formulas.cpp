// The paper's closed forms and exponents (Table 1 constants).
#include "core/formulas.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/engine/trial_workspace.h"
#include "core/exact/ppc_exact.h"
#include "core/expectation.h"
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

/// IR_Probe_HQS's exact expectation on one coloring from first principles:
/// the probes of its order-driven recursion (run_lane), averaged over every
/// assignment of one of the 3! child orders to each gate, 64 assignments
/// per lane group in the draw_lane_choices layout (6 masks per gate: slot
/// c = lanes whose first child is c, slot 3 + c = lanes whose second is c).
double ir_probes_over_all_orders(const HQSystem& hqs,
                                 const Coloring& coloring) {
  static constexpr std::size_t kPairs[6][2] = {{0, 1}, {0, 2}, {1, 0},
                                               {1, 2}, {2, 0}, {2, 1}};
  const IRProbeHQS strategy(hqs);
  const std::size_t gates = (hqs.universe_size() - 1) / 2;
  std::size_t assignments = 1;
  for (std::size_t g = 0; g < gates; ++g) assignments *= 6;
  TrialWorkspace ws(hqs.universe_size());
  std::vector<std::uint64_t> choices(strategy.lane_choice_words());
  long double total = 0.0;
  for (std::size_t base = 0; base < assignments; base += 64) {
    std::fill(choices.begin(), choices.end(), 0);
    const std::size_t lanes = std::min<std::size_t>(64, assignments - base);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      std::size_t digits = base + lane;
      for (std::size_t g = 0; g < gates; ++g, digits /= 6) {
        choices[g * 6 + kPairs[digits % 6][0]] |= 1ULL << lane;
        choices[g * 6 + 3 + kPairs[digits % 6][1]] |= 1ULL << lane;
      }
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      ProbeSession session(coloring);
      strategy.run_lane(ws, session, choices.data(), lane);
      total += session.probe_count();
    }
  }
  return static_cast<double>(total / static_cast<long double>(assignments));
}

TEST(Formulas, HqsRandomizedPpcAnchorsMatchBruteForce) {
  // bench_mc_curves' exact anchors for the randomized HQS rows.  R_Probe_HQS
  // and IR_Probe_HQS at h = 1 randomize only over automorphic children, so
  // their PPC_p is Probe_HQS's closed form; IR_Probe_HQS at h = 2 is the
  // enumeration ir_probe_hqs_ppc, pinned here to the algorithm itself run
  // under every child order on every coloring.
  const HQSystem hqs1(1);
  const HQSystem hqs2(2);
  std::vector<double> ir2_brute(std::size_t{1} << hqs2.universe_size());
  for (std::uint64_t greens = 0; greens < ir2_brute.size(); ++greens) {
    const Coloring coloring(9, ElementSet::from_mask(9, greens));
    ir2_brute[greens] = ir_probes_over_all_orders(hqs2, coloring);
    ASSERT_NEAR(ir2_brute[greens], ir_probe_hqs_expectation(hqs2, coloring),
                1e-12)
        << "greens=" << greens;
  }
  for (const double p : {0.0, 0.1, 0.25, 0.37, 0.5, 0.8, 0.9, 1.0}) {
    for (std::size_t h = 1; h <= 2; ++h) {
      const HQSystem hqs(h);
      EXPECT_NEAR(probe_hqs_expected(h, p),
                  enumerate_iid(hqs.universe_size(), p,
                                [&](const Coloring& c) {
                                  return r_probe_hqs_expectation(hqs, c);
                                }),
                  1e-12)
          << "R_Probe_HQS h=" << h << " p=" << p;
    }
    EXPECT_NEAR(probe_hqs_expected(1, p),
                enumerate_iid(3, p,
                              [&](const Coloring& c) {
                                return ir_probes_over_all_orders(hqs1, c);
                              }),
                1e-12)
        << "IR_Probe_HQS h=1 p=" << p;
    EXPECT_NEAR(ir_probe_hqs_ppc(hqs2, p),
                enumerate_iid(9, p,
                              [&](const Coloring& c) {
                                return ir2_brute[c.greens().to_mask()];
                              }),
                1e-12)
        << "IR_Probe_HQS h=2 p=" << p;
  }
  EXPECT_THROW(ir_probe_hqs_ppc(HQSystem(3), 0.5), std::invalid_argument);
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
