#include "util/stats.h"

#include <cmath>
#include <limits>

#include "util/require.h"

namespace qps {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
}

RunningStats RunningStats::from_moments(std::size_t count, double mean,
                                        double m2, double min, double max) {
  QPS_REQUIRE(count > 0 || (mean == 0.0 && m2 == 0.0),
              "an empty accumulator has zero moments");
  QPS_REQUIRE(m2 >= 0.0 || std::isnan(m2),
              "sum of squared deviations cannot be negative");
  RunningStats stats;
  stats.count_ = count;
  stats.mean_ = mean;
  stats.m2_ = m2;
  stats.min_ = min;
  stats.max_ = max;
  return stats;
}

void CountMoments::require_budget(std::uint64_t count) {
  QPS_REQUIRE(count <= kMaxCount,
              "trial budget above 2^32 would overflow the exact moments");
}

CountMoments CountMoments::from_sums(std::uint64_t count, std::uint64_t sum,
                                     unsigned __int128 sum_sq,
                                     std::uint32_t min, std::uint32_t max) {
  CountMoments moments;
  if (count == 0) return moments;
  moments.count_ = count;
  moments.sum_ = sum;
  moments.sum_sq_ = sum_sq;
  moments.min_ = min;
  moments.max_ = max;
  return moments;
}

RunningStats CountMoments::stats() const {
  if (count_ == 0) return RunningStats();
  // N * sum_sq - sum^2 = N * M2 >= 0 (Cauchy-Schwarz), exact in 128 bits.
  const unsigned __int128 n = count_;
  const unsigned __int128 n_m2 =
      n * sum_sq_ - static_cast<unsigned __int128>(sum_) * sum_;
  const auto count = static_cast<double>(count_);
  return RunningStats::from_moments(
      count_, static_cast<double>(sum_) / count,
      static_cast<double>(n_m2) / count, min_, max_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  if (count_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStats::ci95_halfwidth() const { return 1.96 * sem(); }

LinearFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  QPS_REQUIRE(x.size() == y.size(), "fit_line() needs equal-length vectors");
  QPS_REQUIRE(x.size() >= 2, "fit_line() needs at least two points");
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  QPS_REQUIRE(denom != 0.0, "fit_line() needs non-degenerate x values");
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (fit.slope * x[i] + fit.intercept);
    ss_res += r * r;
  }
  fit.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

LinearFit fit_power_law(const std::vector<double>& x,
                        const std::vector<double>& y) {
  QPS_REQUIRE(x.size() == y.size(), "fit_power_law() needs equal lengths");
  std::vector<double> lx(x.size()), ly(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    QPS_REQUIRE(x[i] > 0 && y[i] > 0, "fit_power_law() needs positive data");
    lx[i] = std::log(x[i]);
    ly[i] = std::log(y[i]);
  }
  return fit_line(lx, ly);
}

double binomial_coefficient(std::size_t n, std::size_t k) {
  if (k > n) return 0.0;
  if (k > n - k) k = n - k;
  double result = 1.0;
  for (std::size_t i = 0; i < k; ++i)
    result = result * static_cast<double>(n - i) / static_cast<double>(i + 1);
  return result;
}

double binomial_tail_geq(std::size_t n, std::size_t k, double p) {
  QPS_REQUIRE(p >= 0.0 && p <= 1.0, "probability outside [0,1]");
  if (k == 0) return 1.0;
  if (k > n) return 0.0;
  // Sum pmf from k to n, accumulating terms by the recurrence
  // pmf(i+1) = pmf(i) * (n-i)/(i+1) * p/(1-p); handle p edge cases first.
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  const double q = 1.0 - p;
  // pmf(k) computed in log space for stability.
  double log_pmf = 0.0;
  for (std::size_t i = 0; i < k; ++i)
    log_pmf += std::log(static_cast<double>(n - i)) -
               std::log(static_cast<double>(i + 1));
  log_pmf += static_cast<double>(k) * std::log(p) +
             static_cast<double>(n - k) * std::log(q);
  double pmf = std::exp(log_pmf);
  double total = 0.0;
  for (std::size_t i = k; i <= n; ++i) {
    total += pmf;
    if (i < n)
      pmf *= static_cast<double>(n - i) / static_cast<double>(i + 1) * (p / q);
  }
  return total > 1.0 ? 1.0 : total;
}

}  // namespace qps
