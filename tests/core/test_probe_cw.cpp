// Probe_CW (Fig. 5, Thm 3.3) and R_Probe_CW (Thm 4.4).
#include "core/algorithms/probe_cw.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator.h"
#include "core/expectation.h"
#include "core/formulas.h"

namespace qps {
namespace {

TEST(ProbeCwTest, AllGreenWallProbesOnePerRow) {
  const CrumblingWall wall({1, 3, 4});
  const ProbeCW strategy(wall);
  Rng rng(1);
  const Coloring c(8, ElementSet::full(8));
  ProbeSession s(c);
  const Witness w = strategy.run(s, rng);
  EXPECT_EQ(w.color, Color::kGreen);
  EXPECT_EQ(s.probe_count(), 3u);  // one hit per row
}

TEST(ProbeCwTest, AllRedWallProbesOnePerRow) {
  const CrumblingWall wall({1, 3, 4});
  const ProbeCW strategy(wall);
  Rng rng(1);
  const Coloring c(8);
  ProbeSession s(c);
  const Witness w = strategy.run(s, rng);
  EXPECT_EQ(w.color, Color::kRed);
  EXPECT_EQ(s.probe_count(), 3u);
}

TEST(ProbeCwTest, ModeFlipScansWholeRow) {
  // Top row green; second row entirely red: the row is exhausted, the mode
  // flips, and the red row becomes the witness prefix.
  const CrumblingWall wall({1, 2, 2});
  const ProbeCW strategy(wall);
  Rng rng(1);
  // Element 0 green; row {1,2} red; row {3,4}: 3 red.
  const Coloring c(5, ElementSet(5, {0, 4}));
  ProbeSession s(c);
  const Witness w = strategy.run(s, rng);
  EXPECT_EQ(w.color, Color::kRed);
  // Probes: 1 (top) + 2 (row 1 exhausted) + 1 (element 3 red, matches) = 4.
  EXPECT_EQ(s.probe_count(), 4u);
  EXPECT_EQ(w.elements, ElementSet(5, {1, 2, 3}));
}

TEST(ProbeCwTest, AverageMatchesExactFormula) {
  EngineOptions options;
  options.trials = 60000;
  options.threads = 1;
  options.seed = 12;
  const std::vector<std::vector<std::size_t>> walls = {
      {1, 2, 3}, {1, 4, 4, 4}, {1, 2, 2, 2, 2}};
  for (const auto& widths : walls) {
    const CrumblingWall wall(widths);
    const ProbeCW strategy(wall);
    for (double p : {0.5, 0.25}) {
      const auto stats = estimate_ppc(wall, strategy, p, options);
      const double exact = probe_cw_expected(widths, p);
      EXPECT_NEAR(stats.mean(), exact, 4 * stats.ci95_halfwidth())
          << wall.name() << " p=" << p;
    }
  }
}

TEST(ProbeCwTest, Theorem33BoundHolds) {
  // E[probes] <= 2k - 1 for every p and wall shape.
  const std::vector<std::vector<std::size_t>> walls = {
      {1}, {1, 2}, {1, 9}, {1, 2, 3}, {1, 5, 5, 5}, {1, 2, 2, 2, 2, 2}};
  for (const auto& widths : walls)
    for (double p : {0.05, 0.2, 0.5, 0.8, 0.95})
      EXPECT_LE(probe_cw_expected(widths, p),
                probe_cw_bound(widths.size()) + 1e-9)
          << "k=" << widths.size() << " p=" << p;
}

TEST(ProbeCwTest, CostIndependentOfRowWidth) {
  // The paper's headline: widening rows does not increase Probe_CW's cost
  // beyond 2k-1 (only the number of rows matters).  Wide rows approach the
  // untruncated geometric cost 2 per row exactly.
  const double narrow = probe_cw_expected({1, 2, 2}, 0.5);
  const double wide = probe_cw_expected({1, 50, 50}, 0.5);
  EXPECT_NEAR(wide, 5.0, 1e-6);  // 1 + 2 + 2
  EXPECT_LT(narrow, wide);       // truncation at the row end only helps
  EXPECT_LE(wide, probe_cw_bound(3) + 1e-9);
}

TEST(ProbeCwTest, WheelCorollary34) {
  // PPC(Probe_CW, Wheel) <= 3 for any p and any wheel size.
  for (std::size_t n : {3u, 10u, 100u})
    for (double p : {0.1, 0.5, 0.9})
      EXPECT_LE(probe_cw_expected({1, n - 1}, p), 3.0 + 1e-9);
}

TEST(RProbeCwTest, ExpectationEvaluatorMatchesMonteCarlo) {
  const CrumblingWall wall({1, 3, 4});
  const RProbeCW strategy(wall);
  EngineOptions options;
  options.trials = 60000;
  options.threads = 1;
  options.seed = 5;
  // A mixed coloring: greens {0, 2, 5}.
  const Coloring c(8, ElementSet(8, {0, 2, 5}));
  const auto stats = expected_probes_on(wall, strategy, c, options);
  const double exact = r_probe_cw_expectation(wall, c);
  EXPECT_NEAR(stats.mean(), exact, 4 * stats.ci95_halfwidth());
}

TEST(RProbeCwTest, MonochromaticBottomRowStopsImmediately) {
  const CrumblingWall wall({1, 2, 3});
  // Bottom row {3,4,5} all green: witness after scanning just that row.
  const Coloring c(6, ElementSet(6, {3, 4, 5}));
  EXPECT_DOUBLE_EQ(r_probe_cw_expectation(wall, c), 3.0);
}

TEST(RProbeCwTest, Theorem44BoundHoldsOnHardInputs) {
  // The bound max_j { n_j + sum_{i>j} ((n_i+1)/2 + 1/n_i) } dominates the
  // exact expectation on every coloring (exhaustive over small walls).
  const CrumblingWall wall({1, 2, 3});
  const double bound = r_probe_cw_bound({1, 2, 3});
  const std::uint64_t limit = 1ULL << 6;
  double worst = 0;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    const Coloring c(6, ElementSet::from_mask(6, mask));
    worst = std::max(worst, r_probe_cw_expectation(wall, c));
  }
  EXPECT_LE(worst, bound + 1e-9);
  // And the bound is nearly tight: within 1 probe of the true worst case.
  EXPECT_GT(worst, bound - 1.0);
}

TEST(RProbeCwTest, WheelWorstCaseIsNMinus1) {
  // Cor. 4.5(2): PCR(R_Probe_CW, Wheel) = n - 1.
  const std::size_t n = 8;
  const CrumblingWall wheel = CrumblingWall::wheel(n);
  const std::uint64_t limit = 1ULL << n;
  double worst = 0;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    const Coloring c(n, ElementSet::from_mask(n, mask));
    worst = std::max(worst, r_probe_cw_expectation(wheel, c));
  }
  EXPECT_NEAR(worst, static_cast<double>(n) - 1.0, 1e-9);
}

TEST(RProbeCwTest, TriangBoundCorollary45) {
  // Cor. 4.5(1): PCR(R_Probe_CW, Triang) <= (n+k)/2 + log k.
  for (std::size_t k : {3u, 5u, 8u}) {
    std::vector<std::size_t> widths(k);
    for (std::size_t i = 0; i < k; ++i) widths[i] = i + 1;
    const double n = static_cast<double>(k * (k + 1) / 2);
    const double bound = r_probe_cw_bound(widths);
    EXPECT_LE(bound,
              (n + static_cast<double>(k)) / 2.0 + std::log2(static_cast<double>(k)) + 1.0)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace qps
