// Probe_HQS (Thms 3.8, 3.9), R_Probe_HQS (Prop. 4.9), IR_Probe_HQS
// (Thm 4.10, Fig. 9).
#include "core/algorithms/probe_hqs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/estimator.h"
#include "core/expectation.h"
#include "core/formulas.h"

namespace qps {
namespace {

TEST(ProbeHqsTest, SingleLeaf) {
  const HQSystem hqs(0);
  const ProbeHQS strategy(hqs);
  Rng rng(1);
  const Coloring c(1, ElementSet(1, {0}));
  ProbeSession s(c);
  const Witness w = strategy.run(s, rng);
  EXPECT_EQ(w.color, Color::kGreen);
  EXPECT_EQ(s.probe_count(), 1u);
}

TEST(ProbeHqsTest, AllGreenProbesQuorumSize) {
  // With all leaves green, every gate resolves after its first two
  // children: exactly 2^h probes (one quorum).
  for (std::size_t h : {1u, 2u, 3u, 4u}) {
    const HQSystem hqs(h);
    const ProbeHQS strategy(hqs);
    Rng rng(1);
    const Coloring c(hqs.universe_size(),
                     ElementSet::full(hqs.universe_size()));
    ProbeSession s(c);
    const Witness w = strategy.run(s, rng);
    EXPECT_EQ(w.color, Color::kGreen);
    EXPECT_EQ(s.probe_count(), hqs.quorum_size());
    EXPECT_EQ(w.elements.count(), hqs.quorum_size());
  }
}

TEST(ProbeHqsTest, AverageIsExactly2Point5PerLevelAtHalf) {
  // Thm 3.8: at p = 1/2 the expected cost is exactly (5/2)^h.
  EngineOptions options;
  options.trials = 60000;
  options.threads = 1;
  options.seed = 17;
  for (std::size_t h : {2u, 4u}) {
    const HQSystem hqs(h);
    const ProbeHQS strategy(hqs);
    const auto stats = estimate_ppc(hqs, strategy, 0.5, options);
    const double exact = std::pow(2.5, static_cast<double>(h));
    EXPECT_DOUBLE_EQ(probe_hqs_expected(h, 0.5), exact);
    EXPECT_NEAR(stats.mean(), exact, 4 * stats.ci95_halfwidth()) << "h=" << h;
  }
}

TEST(ProbeHqsTest, AverageMatchesRecursionAtOtherP) {
  EngineOptions options;
  options.trials = 60000;
  options.threads = 1;
  options.seed = 19;
  for (double p : {0.2, 0.35}) {
    const HQSystem hqs(4);
    const ProbeHQS strategy(hqs);
    const auto stats = estimate_ppc(hqs, strategy, p, options);
    EXPECT_NEAR(stats.mean(), probe_hqs_expected(4, p),
                4 * stats.ci95_halfwidth())
        << "p=" << p;
  }
}

TEST(ProbeHqsTest, LowPGrowthIsTwoPerLevel) {
  // Thm 3.8 for p < 1/2: T(h) = O(n^{log_3 2}), i.e. per-level factor -> 2.
  const double t11 = probe_hqs_expected(11, 0.25);
  const double t12 = probe_hqs_expected(12, 0.25);
  EXPECT_NEAR(t12 / t11, 2.0, 0.02);
}

TEST(ProbeHqsTest, ExponentAtHalfIs0834) {
  // (5/2)^h = n^{log_3 2.5} = n^0.834.
  EXPECT_NEAR(hqs_ppc_exponent(), 0.8340, 0.0001);
  const std::size_t h = 8;
  const double n = std::pow(3.0, static_cast<double>(h));
  EXPECT_NEAR(std::log(probe_hqs_expected(h, 0.5)) / std::log(n),
              hqs_ppc_exponent(), 1e-9);
}

TEST(RProbeHqsTest, ExpectationEvaluatorMatchesMonteCarlo) {
  const HQSystem hqs(2);
  const RProbeHQS strategy(hqs);
  EngineOptions options;
  options.trials = 60000;
  options.threads = 1;
  options.seed = 23;
  for (std::uint64_t mask : {0ULL, 0x1FFULL, 0x155ULL, 0x0F3ULL}) {
    const Coloring c(9, ElementSet::from_mask(9, mask));
    const auto stats = expected_probes_on(hqs, strategy, c, options);
    const double exact = r_probe_hqs_expectation(hqs, c);
    EXPECT_NEAR(stats.mean(), exact, 4 * stats.ci95_halfwidth())
        << "mask=" << mask;
  }
}

TEST(RProbeHqsTest, WorstCaseFamilyPGives8ThirdsPerLevel) {
  // On the family P of Lemma 4.11, every gate sees children {b, b, !b},
  // so E(h) = (8/3)^h exactly.
  for (std::size_t h : {1u, 2u, 3u, 4u}) {
    const HQSystem hqs(h);
    const Coloring worst = hqs_worst_case_coloring(hqs, Color::kGreen);
    EXPECT_NEAR(r_probe_hqs_expectation(hqs, worst),
                std::pow(8.0 / 3.0, static_cast<double>(h)), 1e-9)
        << "h=" << h;
  }
}

TEST(RProbeHqsTest, FamilyPIsTheWorstInput) {
  // Exhaustive over all colorings of the height-2 HQS: no input costs
  // R_Probe_HQS more than the family-P value (8/3)^2.
  const HQSystem hqs(2);
  const double p_value = std::pow(8.0 / 3.0, 2.0);
  const std::uint64_t limit = 1ULL << 9;
  double worst = 0;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    const Coloring c(9, ElementSet::from_mask(9, mask));
    worst = std::max(worst, r_probe_hqs_expectation(hqs, c));
  }
  EXPECT_NEAR(worst, p_value, 1e-9);
}

TEST(IrProbeHqsTest, ExpectationEvaluatorMatchesMonteCarlo) {
  const HQSystem hqs(2);
  const IRProbeHQS strategy(hqs);
  EngineOptions options;
  options.trials = 100000;
  options.threads = 1;
  options.seed = 29;
  for (std::uint64_t mask : {0x1FFULL, 0x155ULL, 0x0F3ULL}) {
    const Coloring c(9, ElementSet::from_mask(9, mask));
    const auto stats = expected_probes_on(hqs, strategy, c, options);
    const double exact = ir_probe_hqs_expectation(hqs, c);
    // The tolerance floor covers zero-variance inputs (deterministic cost).
    EXPECT_NEAR(stats.mean(), exact,
                std::max(5 * stats.ci95_halfwidth(), 1e-9))
        << "mask=" << mask;
  }
}

// Colorings above one word (n > 64), where IR_Probe_HQS and R_Probe_HQS run
// their element-vector supports: the family-P worst case plus two fixed
// mixed patterns.  Every witness is validated, so the supports are checked
// along with the probe counts.
std::vector<Coloring> wide_hqs_colorings(const HQSystem& hqs) {
  const std::size_t n = hqs.universe_size();
  ElementSet alternating(n);
  ElementSet sevenths(n);
  for (Element e = 0; e < n; ++e) {
    if (e % 2 == 0) alternating.insert(e);
    if ((5 * e) % 7 < 3) sevenths.insert(e);
  }
  return {hqs_worst_case_coloring(hqs, Color::kGreen),
          Coloring(n, alternating), Coloring(n, sevenths)};
}

EngineOptions wide_options(std::uint64_t seed) {
  EngineOptions options;
  options.trials = 20000;
  options.threads = 1;
  options.validate_witnesses = true;
  options.seed = seed;
  return options;
}

TEST(IrProbeHqsTest, WideUniverseMatchesExpectation) {
  for (std::size_t h : {4u, 5u}) {  // n = 81, 243
    const HQSystem hqs(h);
    const IRProbeHQS strategy(hqs);
    const std::vector<Coloring> colorings = wide_hqs_colorings(hqs);
    for (std::size_t i = 0; i < colorings.size(); ++i) {
      const Coloring& c = colorings[i];
      const auto stats = expected_probes_on(hqs, strategy, c, wide_options(31));
      EXPECT_NEAR(stats.mean(), ir_probe_hqs_expectation(hqs, c),
                  std::max(4 * stats.sem(), 1e-9))
          << "h=" << h << " coloring " << i;
    }
  }
}

TEST(RProbeHqsTest, WideUniverseMatchesExpectation) {
  const HQSystem hqs(4);  // n = 81
  const RProbeHQS strategy(hqs);
  const std::vector<Coloring> colorings = wide_hqs_colorings(hqs);
  for (std::size_t i = 0; i < colorings.size(); ++i) {
    const Coloring& c = colorings[i];
    const auto stats = expected_probes_on(hqs, strategy, c, wide_options(37));
    EXPECT_NEAR(stats.mean(), r_probe_hqs_expectation(hqs, c),
                std::max(4 * stats.sem(), 1e-9))
        << "coloring " << i;
  }
}

TEST(IrProbeHqsTest, Figure9TwoLevelConstant) {
  // The expected number of height-(h-2) evaluations on the worst-case
  // family P; at h = 2 grandchildren are leaves, so it equals the expected
  // probe count.  Fig. 8 semantics give exactly 191/27 ~ 7.074 (the
  // paper's Fig. 9 prints 189.5/27; see EXPERIMENTS.md for the one-branch
  // discrepancy).
  const HQSystem hqs(2);
  const Coloring worst = hqs_worst_case_coloring(hqs, Color::kGreen);
  EXPECT_NEAR(ir_probe_hqs_expectation(hqs, worst),
              ir_probe_hqs_level_constant().to_double(), 1e-9);
}

TEST(IrProbeHqsTest, BeatsRProbeHqsOnWorstCase) {
  // Thm 4.10's point: the grandchild peek strictly improves on plain
  // random 2-of-3 evaluation on the hard family.
  for (std::size_t h : {2u, 4u, 6u}) {
    const HQSystem hqs(h);
    const Coloring worst = hqs_worst_case_coloring(hqs, Color::kGreen);
    const double ir = ir_probe_hqs_expectation(hqs, worst);
    const double plain = r_probe_hqs_expectation(hqs, worst);
    EXPECT_LT(ir, plain) << "h=" << h;
  }
}

TEST(IrProbeHqsTest, TwoLevelGrowthMatchesConstantExactly) {
  // On family P every sibling subtree is again P-structured with equal
  // cost, so EI(h) = (191/27) * EI(h-2) exactly: the even-height costs are
  // (191/27)^{h/2} and the ratio between consecutive even heights is the
  // constant itself.
  const double constant = ir_probe_hqs_level_constant().to_double();
  const HQSystem h6(6);
  const Coloring w6 = hqs_worst_case_coloring(h6, Color::kGreen);
  const HQSystem h4(4);
  const Coloring w4 = hqs_worst_case_coloring(h4, Color::kGreen);
  const double e4 = ir_probe_hqs_expectation(h4, w4);
  const double e6 = ir_probe_hqs_expectation(h6, w6);
  EXPECT_NEAR(e6 / e4, constant, 1e-9);
  EXPECT_NEAR(e4, constant * constant, 1e-9);
}

TEST(IrProbeHqsTest, ImpliedExponentBeatsRProbeExponent) {
  // log_9(191/27) ~ 0.890 < log_3(8/3) ~ 0.893 (Thm 4.10's improvement),
  // both above the Cor. 4.13 lower bound log_3(5/2) ~ 0.834.
  EXPECT_LT(hqs_ir_probe_exponent(), hqs_r_probe_exponent());
  EXPECT_GT(hqs_ir_probe_exponent(), hqs_ppc_exponent());
  EXPECT_NEAR(hqs_r_probe_exponent(), 0.8928, 0.0005);
  EXPECT_NEAR(hqs_ir_probe_exponent(), 0.8903, 0.0005);
}

}  // namespace
}  // namespace qps
