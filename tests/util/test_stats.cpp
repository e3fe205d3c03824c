#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace qps {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sem(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SemAndCiShrinkWithSamples) {
  RunningStats small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(small.sem(), large.sem());
  EXPECT_NEAR(large.ci95_halfwidth(), 1.96 * large.sem(), 1e-12);
}

bool same_moments(const CountMoments& a, const CountMoments& b) {
  return a.count() == b.count() && a.sum() == b.sum() &&
         a.sum_squares() == b.sum_squares() && a.min() == b.min() &&
         a.max() == b.max();
}

TEST(CountMoments, EmptyConvertsToEmptyStats) {
  const CountMoments m;
  EXPECT_EQ(m.count(), 0u);
  const RunningStats s = m.stats();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.sum_squared_deviations(), 0.0);
}

TEST(CountMoments, KnownSampleGivesExactMoments) {
  CountMoments m;
  for (std::uint32_t x : {2u, 4u, 4u, 4u, 5u, 5u, 7u, 9u}) m.add(x);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_EQ(m.sum(), 40u);
  EXPECT_TRUE(m.sum_squares() == 232u);
  EXPECT_EQ(m.min(), 2u);
  EXPECT_EQ(m.max(), 9u);
  const RunningStats s = m.stats();
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.sum_squared_deviations(), 32.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(CountMoments, MergeOverRandomSplitPointsIsExact) {
  // Any partition of the stream, merged in any order, gives the same
  // integers as one sequential pass.
  Rng rng(2001);
  std::vector<std::uint32_t> values(5000);
  for (auto& v : values) v = static_cast<std::uint32_t>(rng.below(200));
  CountMoments sequential;
  for (const std::uint32_t v : values) sequential.add(v);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::size_t> cuts = {0, values.size()};
    for (int i = 0; i < 6; ++i) cuts.push_back(rng.below(values.size() + 1));
    std::sort(cuts.begin(), cuts.end());
    std::vector<CountMoments> parts;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      CountMoments part;
      for (std::size_t t = cuts[i]; t < cuts[i + 1]; ++t) part.add(values[t]);
      parts.push_back(part);
    }
    CountMoments forward, backward;
    for (const auto& part : parts) forward.merge(part);
    for (auto it = parts.rbegin(); it != parts.rend(); ++it)
      backward.merge(*it);
    EXPECT_TRUE(same_moments(forward, sequential)) << round;
    EXPECT_TRUE(same_moments(backward, sequential)) << round;
  }
}

TEST(CountMoments, MeanIsTheRoundedQuotientAndAgreesWithWelford) {
  Rng rng(7);
  CountMoments m;
  RunningStats welford;
  for (int i = 0; i < 100000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.below(128));
    m.add(x);
    welford.add(x);
  }
  const RunningStats s = m.stats();
  EXPECT_EQ(s.count(), welford.count());
  EXPECT_EQ(s.mean(), static_cast<double>(m.sum()) /
                          static_cast<double>(m.count()));
  EXPECT_NEAR(s.mean(), welford.mean(), 1e-12 * welford.mean());
  EXPECT_NEAR(s.variance(), welford.variance(), 1e-9 * welford.variance());
  EXPECT_EQ(s.min(), welford.min());
  EXPECT_EQ(s.max(), welford.max());
}

TEST(CountMoments, LargeValuesCarryIntoTheWideSumOfSquares) {
  // (2^32 - 1)^2 * 3 exceeds 2^64: the sum of squares must carry.
  CountMoments m;
  for (int i = 0; i < 3; ++i) m.add(UINT32_MAX);
  const unsigned __int128 big = UINT32_MAX;
  EXPECT_TRUE(m.sum_squares() == 3 * big * big);
  EXPECT_EQ(m.sum(), 3 * std::uint64_t{UINT32_MAX});
  EXPECT_EQ(m.stats().mean(), static_cast<double>(UINT32_MAX));
  EXPECT_EQ(m.stats().sum_squared_deviations(), 0.0);
}

TEST(CountMoments, FromSumsRebuildsAnAccumulator) {
  CountMoments added;
  for (std::uint32_t x : {3u, 1u, 4u}) added.add(x);
  EXPECT_TRUE(same_moments(CountMoments::from_sums(3, 8, 26, 1, 4), added));
  EXPECT_TRUE(same_moments(CountMoments::from_sums(0, 5, 9, 1, 2),
                           CountMoments()));
}

TEST(CountMoments, RefusesABudgetBeyondTheExactnessBound) {
  EXPECT_NO_THROW(CountMoments::require_budget(CountMoments::kMaxCount));
  EXPECT_THROW(CountMoments::require_budget(CountMoments::kMaxCount + 1),
               std::invalid_argument);
}

TEST(FitLine, ExactLine) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {3, 5, 7, 9};  // y = 2x + 1
  const LinearFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLine, NoisyLineHasLowerR2) {
  const std::vector<double> x = {1, 2, 3, 4, 5, 6};
  const std::vector<double> y = {2.2, 3.8, 6.3, 7.9, 9.6, 12.4};
  const LinearFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.15);
  EXPECT_LT(fit.r_squared, 1.0);
  EXPECT_GT(fit.r_squared, 0.98);
}

TEST(FitLine, RejectsDegenerateInput) {
  EXPECT_THROW(fit_line({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fit_line({1, 2}, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(fit_line({2, 2}, {1, 3}), std::invalid_argument);
}

TEST(FitPowerLaw, RecoversExponent) {
  std::vector<double> x, y;
  for (double v : {10.0, 100.0, 1000.0, 10000.0}) {
    x.push_back(v);
    y.push_back(3.0 * std::pow(v, 0.834));
  }
  const LinearFit fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.slope, 0.834, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 3.0, 1e-9);
}

TEST(FitPowerLaw, RejectsNonPositive) {
  EXPECT_THROW(fit_power_law({1, -2}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(fit_power_law({1, 2}, {0, 2}), std::invalid_argument);
}

TEST(BinomialCoefficient, SmallValues) {
  EXPECT_DOUBLE_EQ(binomial_coefficient(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(9, 5), 126.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(5, 6), 0.0);
}

TEST(BinomialTail, EdgeCases) {
  EXPECT_DOUBLE_EQ(binomial_tail_geq(10, 0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(binomial_tail_geq(10, 11, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(binomial_tail_geq(10, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_tail_geq(10, 5, 1.0), 1.0);
}

TEST(BinomialTail, MatchesDirectSum) {
  // P[X >= 2], X ~ Bin(3, 0.5) = (3 + 1)/8 = 0.5.
  EXPECT_NEAR(binomial_tail_geq(3, 2, 0.5), 0.5, 1e-12);
  // P[X >= 1], X ~ Bin(2, 0.3) = 1 - 0.49 = 0.51.
  EXPECT_NEAR(binomial_tail_geq(2, 1, 0.3), 0.51, 1e-12);
}

TEST(BinomialTail, SymmetricAtHalf) {
  // For odd n and p = 1/2, P[X >= (n+1)/2] = 1/2 exactly.
  for (std::size_t n : {3u, 5u, 7u, 9u, 11u, 21u})
    EXPECT_NEAR(binomial_tail_geq(n, (n + 1) / 2, 0.5), 0.5, 1e-12);
}

TEST(BinomialTail, RejectsBadProbability) {
  EXPECT_THROW(binomial_tail_geq(4, 2, -0.1), std::invalid_argument);
  EXPECT_THROW(binomial_tail_geq(4, 2, 1.1), std::invalid_argument);
}

}  // namespace
}  // namespace qps
