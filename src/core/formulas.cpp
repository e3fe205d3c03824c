#include "core/formulas.h"

#include <cmath>

#include "math/random_walk.h"
#include "quorum/availability.h"
#include "util/require.h"

namespace qps {

double probe_maj_expected(std::size_t n, double p) {
  QPS_REQUIRE(n % 2 == 1, "Maj needs odd n");
  return grid_walk_expected_time((n + 1) / 2, p);
}

double probe_cw_expected(const std::vector<std::size_t>& widths, double p) {
  QPS_REQUIRE(!widths.empty() && widths[0] == 1,
              "Probe_CW analysis needs a width-1 top row");
  QPS_REQUIRE(p > 0.0 && p < 1.0, "need 0 < p < 1");
  const double q = 1.0 - p;
  double expected = 1.0;  // the top row's single element
  std::vector<std::size_t> prefix;
  prefix.push_back(widths[0]);
  for (std::size_t i = 1; i < widths.size(); ++i) {
    // Mode at row i is red exactly when the wall above (rows 0..i-1) has no
    // green quorum, which happens with probability F_{i-1}.
    const double f_above = cw_failure_probability(prefix, p);
    const auto width = static_cast<double>(widths[i]);
    // Expected probes to find a green (resp. red) element in a row of
    // width w, truncated at the row end: (1 - p^w)/q (resp. (1 - q^w)/p).
    const double probes_green = (1.0 - std::pow(p, width)) / q;
    const double probes_red = (1.0 - std::pow(q, width)) / p;
    expected += f_above * probes_red + (1.0 - f_above) * probes_green;
    prefix.push_back(widths[i]);
  }
  return expected;
}

double probe_cw_bound(std::size_t rows) {
  return 2.0 * static_cast<double>(rows) - 1.0;
}

double probe_tree_expected(std::size_t height, double p) {
  const double q = 1.0 - p;
  double t = 1.0;
  for (std::size_t h = 1; h <= height; ++h) {
    const double f = tree_failure_probability(h - 1, p);
    // The second subtree is visited when the first witness's color differs
    // from the root's: root green & subtree dead, or root red & subtree live.
    t = 1.0 + (1.0 + q * f + p * (1.0 - f)) * t;
  }
  return t;
}

double probe_hqs_expected(std::size_t height, double p) {
  double t = 1.0;
  for (std::size_t h = 1; h <= height; ++h) {
    const double f = hqs_failure_probability(h - 1, p);
    // The third child is evaluated when the first two disagree.
    t = (2.0 + 2.0 * f * (1.0 - f)) * t;
  }
  return t;
}

Rational r_probe_maj_expected(std::size_t n, std::size_t reds) {
  QPS_REQUIRE(n % 2 == 1, "Maj needs odd n");
  QPS_REQUIRE(reds <= n, "more reds than elements");
  const auto threshold = static_cast<std::int64_t>((n + 1) / 2);  // k+1
  const auto nn = static_cast<std::int64_t>(n);
  const auto r = static_cast<std::int64_t>(reds);
  const auto g = nn - r;
  // The majority color reaches the threshold; by Lemma 2.8 the expected
  // draw index of its threshold-th element is (n+1)*threshold/(majority+1).
  const std::int64_t majority = r >= threshold ? r : g;
  return Rational((nn + 1) * threshold, majority + 1);
}

Rational r_probe_maj_worst_case(std::size_t n) {
  return r_probe_maj_expected(n, (n + 1) / 2);
}

double r_probe_maj_ppc(std::size_t n, double p) {
  QPS_REQUIRE(n % 2 == 1, "Maj needs odd n");
  QPS_REQUIRE(p >= 0.0 && p <= 1.0, "probability outside [0,1]");
  if (p == 0.0) return r_probe_maj_expected(n, 0).to_double();
  if (p == 1.0) return r_probe_maj_expected(n, n).to_double();
  // Binomial weights in log space: no factorial or power overflows or
  // underflows to a wrong total at any n.
  const auto nn = static_cast<double>(n);
  double expected = 0.0;
  for (std::size_t r = 0; r <= n; ++r) {
    const auto rr = static_cast<double>(r);
    const double log_weight = std::lgamma(nn + 1.0) - std::lgamma(rr + 1.0) -
                              std::lgamma(nn - rr + 1.0) + rr * std::log(p) +
                              (nn - rr) * std::log1p(-p);
    expected += std::exp(log_weight) * r_probe_maj_expected(n, r).to_double();
  }
  return expected;
}

double r_probe_cw_bound(const std::vector<std::size_t>& widths) {
  const std::size_t k = widths.size();
  double best = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    double value = static_cast<double>(widths[j]);
    for (std::size_t i = j + 1; i < k; ++i) {
      const auto w = static_cast<double>(widths[i]);
      value += (w + 1.0) / 2.0 + 1.0 / w;
    }
    best = std::max(best, value);
  }
  return best;
}

double cw_randomized_lower_bound(const std::vector<std::size_t>& widths) {
  double n = 0;
  for (std::size_t w : widths) n += static_cast<double>(w);
  return (n + static_cast<double>(widths.size())) / 2.0;
}

double r_probe_tree_bound(std::size_t n) {
  return (5.0 * static_cast<double>(n) + 1.0) / 6.0;
}

double tree_randomized_lower_bound(std::size_t n) {
  return 2.0 * (static_cast<double>(n) + 1.0) / 3.0;
}

double hqs_ppc_exponent() { return std::log(2.5) / std::log(3.0); }

double hqs_ppc_low_p_exponent() { return std::log(2.0) / std::log(3.0); }

double tree_ppc_exponent(double p) {
  const double effective = p <= 0.5 ? p : 1.0 - p;
  return std::log2(1.0 + effective);
}

double hqs_r_probe_exponent() { return std::log(8.0 / 3.0) / std::log(3.0); }

double hqs_ir_probe_exponent() {
  return std::log(191.0 / 27.0) / std::log(9.0);
}

Rational ir_probe_hqs_level_constant() { return Rational(191, 27); }

}  // namespace qps
