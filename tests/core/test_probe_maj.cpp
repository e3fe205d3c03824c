// Probe_Maj (Prop. 3.2) and R_Probe_Maj (Thm 4.2).
#include "core/algorithms/probe_maj.h"

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/expectation.h"
#include "core/formulas.h"

namespace qps {
namespace {

TEST(ProbeMajTest, StopsAtThresholdOfOneColor) {
  const MajoritySystem maj(5);
  const ProbeMaj strategy(maj);
  Rng rng(1);
  {
    // First three elements green: stops after 3 probes.
    const Coloring c(5, ElementSet(5, {0, 1, 2}));
    ProbeSession s(c);
    const Witness w = strategy.run(s, rng);
    EXPECT_EQ(w.color, Color::kGreen);
    EXPECT_EQ(s.probe_count(), 3u);
  }
  {
    // Alternating colors: needs 5 probes (worst case n).
    const Coloring c(5, ElementSet(5, {0, 2}));
    ProbeSession s(c);
    const Witness w = strategy.run(s, rng);
    EXPECT_EQ(w.color, Color::kRed);
    EXPECT_EQ(s.probe_count(), 5u);
  }
}

TEST(ProbeMajTest, SingletonUniverse) {
  const MajoritySystem maj(1);
  const ProbeMaj strategy(maj);
  Rng rng(1);
  const Coloring c(1, ElementSet(1, {0}));
  ProbeSession s(c);
  const Witness w = strategy.run(s, rng);
  EXPECT_EQ(w.color, Color::kGreen);
  EXPECT_EQ(s.probe_count(), 1u);
}

TEST(ProbeMajTest, AverageMatchesGridWalkFormula) {
  // Prop. 3.2: PPC_p(Maj) is the grid-walk absorption time with
  // N = (n+1)/2; Monte Carlo should match the exact DP.
  EngineOptions options;
  options.trials = 60000;
  options.threads = 1;
  options.seed = 99;
  for (double p : {0.5, 0.3}) {
    const MajoritySystem maj(21);
    const ProbeMaj strategy(maj);
    const auto stats = estimate_ppc(maj, strategy, p, options);
    const double exact = probe_maj_expected(21, p);
    EXPECT_NEAR(stats.mean(), exact, 4 * stats.ci95_halfwidth())
        << "p=" << p;
  }
}

TEST(ProbeMajTest, HalfCaseIsNMinusThetaSqrtN) {
  // The deficit n - PPC grows like sqrt(n).
  const double d1 = 101.0 - probe_maj_expected(101, 0.5);
  const double d2 = 401.0 - probe_maj_expected(401, 0.5);
  EXPECT_GT(d1, 0.0);
  EXPECT_NEAR(d2 / d1, 2.0, 0.2);  // sqrt(4) = 2, up to finite-size effects
}

TEST(ProbeMajTest, BiasedCaseIsNOver2Q) {
  // For p < q, PPC_p(Maj) -> n/(2q).
  for (double p : {0.1, 0.3}) {
    const double expected = 401.0 / (2.0 * (1.0 - p));
    EXPECT_NEAR(probe_maj_expected(401, p), expected, 1.5) << "p=" << p;
  }
}

TEST(RProbeMajTest, ExpectedProbesOnFixedColoringMatchesUrnFormula) {
  const MajoritySystem maj(9);
  const RProbeMaj strategy(maj);
  EngineOptions options;
  options.trials = 60000;
  options.threads = 1;
  options.seed = 7;
  for (std::size_t reds : {0u, 2u, 5u, 7u, 9u}) {
    ElementSet greens = ElementSet::full(9);
    for (Element e = 0; e < reds; ++e) greens.erase(e);
    const Coloring coloring(9, greens);
    const auto stats =
        expected_probes_on(maj, strategy, coloring, options);
    const double exact = r_probe_maj_expectation(maj, coloring);
    EXPECT_NEAR(stats.mean(), exact, 4 * stats.ci95_halfwidth())
        << "reds=" << reds;
  }
}

TEST(RProbeMajTest, WorstCaseIsMajorityRedByOne) {
  // Thm 4.2: the maximum of (n+1)(k+1)/(majority+1) over red counts is at
  // r = k+1, value n - (n-1)/(n+3).
  for (std::size_t n : {3u, 5u, 9u, 15u}) {
    const Rational worst = r_probe_maj_worst_case(n);
    for (std::size_t r = 0; r <= n; ++r)
      EXPECT_LE(r_probe_maj_expected(n, r), worst) << "n=" << n << " r=" << r;
    const auto nn = static_cast<std::int64_t>(n);
    EXPECT_EQ(worst, Rational(nn) - Rational(nn - 1, nn + 3));
  }
}

TEST(RProbeMajTest, WitnessIsExactlyThresholdSized) {
  const MajoritySystem maj(7);
  const RProbeMaj strategy(maj);
  Rng rng(3);
  const Coloring c(7, ElementSet(7, {0, 1, 2, 3}));
  for (int t = 0; t < 20; ++t) {
    ProbeSession s(c);
    const Witness w = strategy.run(s, rng);
    EXPECT_EQ(w.elements.count(), 4u);
    EXPECT_EQ(w.color, Color::kGreen);
  }
}

}  // namespace
}  // namespace qps
