// End-to-end reproduction checks for the paper's headline results:
// the Section 2.3 worked example, Table 1's relationships, and the
// cross-model orderings.  These are the tests that certify the repository
// reproduces the paper, not just that its pieces work.
#include <gtest/gtest.h>

#include <cmath>

#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_tree.h"
#include "core/coloring.h"
#include "core/estimator.h"
#include "core/exact/pc_exact.h"
#include "core/exact/pcr_exact.h"
#include "core/exact/ppc_exact.h"
#include "core/exact/yao_bound.h"
#include "core/expectation.h"
#include "core/formulas.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"
#include "util/stats.h"

namespace qps {
namespace {

TEST(PaperResults, Section23WorkedExampleMaj3) {
  // PC(Maj3) = 3, PCR(Maj3) = 8/3, PPC(Maj3) = 5/2 -- computed by three
  // independent engines (minimax DP, strategy-enumeration game, Bellman DP).
  const MajoritySystem maj3(3);
  EXPECT_EQ(pc_exact(maj3), 3u);
  EXPECT_NEAR(pcr_exact(maj3).value, 8.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(ppc_exact(maj3, 0.5), 2.5);
}

TEST(PaperResults, ThreeModelsAreOrdered) {
  // PPC_{1/2} <= PCR <= PC on every system the engines can handle.
  const MajoritySystem maj(3);
  const MajoritySystem maj5(5);
  const TreeSystem tree(1);
  const CrumblingWall wheel4 = CrumblingWall::wheel(4);
  for (const QuorumSystem* s : std::vector<const QuorumSystem*>{
           &maj, &maj5, &tree, &wheel4}) {
    const double ppc = ppc_exact(*s, 0.5);
    const double pcr = pcr_exact(*s).value;
    const double pc = static_cast<double>(pc_exact(*s));
    EXPECT_LE(ppc, pcr + 1e-9) << s->name();
    EXPECT_LE(pcr, pc + 1e-9) << s->name();
  }
}

TEST(PaperResults, Table1MajRow) {
  // Probabilistic: n - theta(sqrt n) at p = 1/2.  Randomized:
  // n - (n-1)/(n+3) exactly, certified by the Yao engine.
  const std::size_t n = 9;
  const MajoritySystem maj(n);
  const double ppc = ppc_exact(maj, 0.5);
  EXPECT_LT(ppc, static_cast<double>(n));
  EXPECT_GT(ppc, static_cast<double>(n) - 3.0 * std::sqrt(n));
  EXPECT_NEAR(yao_bound(maj, maj_hard_distribution(n)),
              r_probe_maj_worst_case(n).to_double(), 1e-9);
  EXPECT_EQ(pc_exact(maj), n);  // evasive in the deterministic model
}

TEST(PaperResults, Table1TriangRow) {
  // Probabilistic: Probe_CW pays <= 2k-1 regardless of n; randomized
  // lower bound (n+k)/2.
  const CrumblingWall triang = CrumblingWall::triang(3);
  const std::size_t n = triang.universe_size();  // 6
  const std::size_t k = triang.row_count();      // 3
  EXPECT_LE(ppc_exact(triang, 0.5), 2.0 * static_cast<double>(k) - 1.0);
  EXPECT_NEAR(yao_bound(triang, cw_hard_distribution(triang)),
              (static_cast<double>(n) + static_cast<double>(k)) / 2.0, 1e-9);
  EXPECT_EQ(pc_exact(triang), n);
}

TEST(PaperResults, Table1TreeRow) {
  // Probabilistic: O(n^0.585) -- the exact optimum at h=2 is far below n.
  // Randomized: lower bound 2(n+1)/3 via Yao; upper bound 5n/6 + 1/6.
  const TreeSystem tree(2);
  const std::size_t n = tree.universe_size();  // 7
  EXPECT_LT(ppc_exact(tree, 0.5), probe_tree_expected(2, 0.5) + 1e-9);
  const double yao = yao_bound(tree, tree_hard_distribution(tree));
  EXPECT_NEAR(yao, 2.0 * (static_cast<double>(n) + 1.0) / 3.0, 1e-9);
  EXPECT_LE(yao, r_probe_tree_bound(n));
  EXPECT_EQ(pc_exact(tree), n);
}

TEST(PaperResults, Table1HqsRow) {
  // Probabilistic: Probe_HQS costs exactly (5/2)^h; the true optimum at
  // h=2 is slightly lower (393/64 -- see the Thm 3.9 deviation note in
  // EXPERIMENTS.md).  Randomized: IR improves on R on the worst case.
  EXPECT_DOUBLE_EQ(probe_hqs_expected(2, 0.5), 6.25);
  EXPECT_DOUBLE_EQ(ppc_exact(HQSystem(2), 0.5), 393.0 / 64.0);
  const HQSystem hqs(4);
  const Coloring worst = hqs_worst_case_coloring(hqs, Color::kGreen);
  const double r_cost = r_probe_hqs_expectation(hqs, worst);
  const double ir_cost = ir_probe_hqs_expectation(hqs, worst);
  EXPECT_NEAR(r_cost, std::pow(8.0 / 3.0, 4.0), 1e-9);
  EXPECT_LT(ir_cost, r_cost);
  EXPECT_GT(ir_cost, std::pow(2.5, 4.0));  // above the PPC lower bound
}

TEST(PaperResults, CrumblingWallGapProbabilisticVsDeterministic) {
  // The paper's flagship gap: PC(CW) = n but PPC is O(k).  Make the wall
  // wide (n = 11, k = 3) and verify both sides exactly.
  const CrumblingWall wall({1, 5, 5});
  EXPECT_EQ(pc_exact(wall), 11u);
  EXPECT_LE(ppc_exact(wall, 0.5), 5.0);  // 2k - 1
}

TEST(PaperResults, TreePolynomialGapAcrossP) {
  // Prop 3.6: the exponent log2(1+p) varies with p.  Fitting a power law
  // over heights removes the constant factor that a single-point
  // log-ratio would absorb.
  for (double p : {0.5, 0.3, 0.2}) {
    // For p < 1/2 the per-level factor 1 + p + (q-p)F(h) converges only as
    // fast as F(h) ~ (p + 1/2)^h decays, so fit over larger heights there.
    const std::size_t h_lo = p == 0.5 ? 10 : 24;
    const std::size_t h_hi = p == 0.5 ? 18 : 34;
    std::vector<double> ns, costs;
    for (std::size_t h = h_lo; h <= h_hi; ++h) {
      ns.push_back(std::pow(2.0, static_cast<double>(h) + 1.0) - 1.0);
      costs.push_back(probe_tree_expected(h, p));
    }
    const LinearFit fit = fit_power_law(ns, costs);
    EXPECT_NEAR(fit.slope, tree_ppc_exponent(p), 0.01) << "p=" << p;
  }
  // The polynomial gap: the p = 0.2 exponent is far below the p = 0.5 one.
  EXPECT_LT(tree_ppc_exponent(0.2), tree_ppc_exponent(0.5) - 0.3);
}

TEST(PaperResults, HqsMeasuredExponentMatches0834) {
  // Fit the exponent of Probe_HQS's exact cost at p = 1/2 over heights
  // 4..9: must be log_3 2.5 to high precision (the recursion is exact).
  std::vector<double> ns, costs;
  for (std::size_t h = 4; h <= 9; ++h) {
    ns.push_back(std::pow(3.0, static_cast<double>(h)));
    costs.push_back(probe_hqs_expected(h, 0.5));
  }
  const LinearFit fit = fit_power_law(ns, costs);
  EXPECT_NEAR(fit.slope, hqs_ppc_exponent(), 1e-9);
}

TEST(PaperResults, MonteCarloTreeExponentAtHalf) {
  // End-to-end: measure Probe_Tree by simulation across sizes and fit the
  // exponent; expect ~0.585 within Monte-Carlo tolerance.
  EngineOptions options;
  options.trials = 8000;
  options.threads = 1;
  options.seed = 404;
  std::vector<double> ns, costs;
  for (std::size_t h : {6u, 8u, 10u, 12u}) {
    const TreeSystem tree(h);
    const ProbeTree strategy(tree);
    const auto stats = estimate_ppc(tree, strategy, 0.5, options);
    ns.push_back(static_cast<double>(tree.universe_size()));
    costs.push_back(stats.mean());
  }
  const LinearFit fit = fit_power_law(ns, costs);
  EXPECT_NEAR(fit.slope, 0.585, 0.03);
}

TEST(PaperResults, RandomizedBeatsDeterministicOnTreeWorstCase) {
  // PC(Tree) = n but R_Probe_Tree's worst coloring costs < n; exhaustive
  // over all 2^7 colorings at h = 2.
  const TreeSystem tree(2);
  double worst = 0;
  for (std::uint64_t mask = 0; mask < (1ULL << 7); ++mask)
    worst = std::max(worst, r_probe_tree_expectation(
                                tree, Coloring(7, ElementSet::from_mask(7, mask))));
  EXPECT_LT(worst, 7.0);
  EXPECT_GE(worst, 2.0 * 8.0 / 3.0 - 1e-9);  // >= Yao bound 16/3
}

}  // namespace
}  // namespace qps
