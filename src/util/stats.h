// Summary statistics and small fitting helpers used by the benchmark
// harnesses: online mean/variance (Welford), exact integer moments of probe
// counts, normal-approximation confidence intervals, and least-squares
// log-log regression for exponent fits (e.g. verifying PPC(HQS) ~ n^0.834).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qps {

/// Online accumulator for mean and variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  /// Folds another accumulator into this one (Chan et al. pairwise update),
  /// as if every sample of `other` had been added after this one's.
  void merge(const RunningStats& other);

  /// Reconstructs an accumulator from its five raw moments, exactly as
  /// saved by count()/mean()/sum_squared_deviations()/min()/max().  The
  /// sweep subsystem uses this to move results across process boundaries
  /// (worker protocol, checkpoint journal) without losing a bit.
  static RunningStats from_moments(std::size_t count, double mean, double m2,
                                   double min, double max);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double sem() const;
  /// Half-width of the ~95% normal-approximation confidence interval.
  double ci95_halfwidth() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Raw sum of squared deviations (the M2 term of Welford's recurrence);
  /// together with count/mean/min/max it round-trips the accumulator.
  double sum_squared_deviations() const { return m2_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact moments of a stream of unsigned 32-bit integers (probe counts):
/// the count, the sum, the sum of squares, min and max, all as integers.
/// add() and merge() are plain integer arithmetic, so merging is
/// associative and commutative and a result never depends on how the
/// stream was split.  stats() converts once, at the end: the mean is the
/// correctly rounded sum/count whenever the sum is below 2^53.
///
/// Exactness bound: with count <= kMaxCount = 2^32 and every value below
/// 2^32, the sum stays below 2^64 and count * sum_sq (the widest term of
/// the conversion) below 2^128.  Callers check a whole trial budget once
/// with require_budget(); add() and merge() never check.
class CountMoments {
 public:
  static constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 32;

  /// Throws std::invalid_argument when `count` samples could overflow the
  /// exact integers (count > kMaxCount).
  static void require_budget(std::uint64_t count);

  /// An accumulator holding `count` samples with the given sums and
  /// extremes (count 0 ignores the rest and gives the empty accumulator).
  static CountMoments from_sums(std::uint64_t count, std::uint64_t sum,
                                unsigned __int128 sum_sq, std::uint32_t min,
                                std::uint32_t max);

  void add(std::uint32_t x) {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    ++count_;
    sum_ += x;
    sum_sq_ += std::uint64_t{x} * x;
  }

  void merge(const CountMoments& other) {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  unsigned __int128 sum_squares() const { return sum_sq_; }
  /// Extremes of the samples; UINT32_MAX and 0 while empty.
  std::uint32_t min() const { return min_; }
  std::uint32_t max() const { return max_; }

  /// The RunningStats view: mean = sum / count and
  /// M2 = (count * sum_sq - sum^2) / count, from the exact integers.
  RunningStats stats() const;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  unsigned __int128 sum_sq_ = 0;
  std::uint32_t min_ = UINT32_MAX;
  std::uint32_t max_ = 0;
};

/// Result of an ordinary least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination.
  double r_squared = 0.0;
};

/// Least-squares line through (x[i], y[i]).  Needs at least two points.
LinearFit fit_line(const std::vector<double>& x, const std::vector<double>& y);

/// Fits y = C * x^alpha by regressing log y on log x; returns {alpha, log C}.
/// All inputs must be positive.
LinearFit fit_power_law(const std::vector<double>& x,
                        const std::vector<double>& y);

/// Exact binomial tail P[X >= k] for X ~ Bin(n, p); numerically stable for
/// the small n used in availability closed forms.
double binomial_tail_geq(std::size_t n, std::size_t k, double p);

/// Binomial coefficient as double (exact for the ranges used here).
double binomial_coefficient(std::size_t n, std::size_t k);

}  // namespace qps
