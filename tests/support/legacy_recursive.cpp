#include "tests/support/legacy_recursive.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/exact/char_table.h"
#include "util/require.h"

namespace qps::exact::legacy {

namespace {

class PcSolver {
 public:
  explicit PcSolver(const QuorumSystem& system)
      : table_(system), n_(system.universe_size()) {
    memo_.reserve(1u << 18);
  }

  std::size_t solve() { return value(0, 0); }

 private:
  std::size_t value(std::uint64_t probed, std::uint64_t greens) {
    if (table_.is_terminal(probed, greens)) return 0;
    const std::uint64_t key = (probed << n_) | greens;
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    std::size_t best = n_ + 1;  // upper bound: probing everything certifies
    for (std::size_t e = 0; e < n_; ++e) {
      const std::uint64_t bit = 1ULL << e;
      if (probed & bit) continue;
      // Adversary answers with the worse color for the player.
      const std::size_t worst =
          std::max(value(probed | bit, greens | bit), value(probed | bit, greens));
      best = std::min(best, 1 + worst);
      if (best == 1) break;  // cannot do better than one probe
    }
    memo_.emplace(key, static_cast<std::uint32_t>(best));
    return best;
  }

  CharTable table_;
  std::size_t n_;
  std::unordered_map<std::uint64_t, std::uint32_t> memo_;
};

class PpcSolver {
 public:
  PpcSolver(const QuorumSystem& system, double p)
      : table_(system), n_(system.universe_size()), p_(p), q_(1.0 - p) {
    QPS_REQUIRE(p >= 0.0 && p <= 1.0, "probability outside [0,1]");
    memo_.reserve(1u << 18);
  }

  double value(std::uint64_t probed, std::uint64_t greens) {
    if (table_.is_terminal(probed, greens)) return 0.0;
    const std::uint64_t key = (probed << n_) | greens;
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    double best = static_cast<double>(n_) + 1.0;
    for (std::size_t e = 0; e < n_; ++e) {
      const std::uint64_t bit = 1ULL << e;
      if (probed & bit) continue;
      const double candidate = 1.0 + q_ * value(probed | bit, greens | bit) +
                               p_ * value(probed | bit, greens);
      if (candidate < best) best = candidate;
    }
    memo_.emplace(key, best);
    return best;
  }

  std::size_t best_first_probe() {
    double best = static_cast<double>(n_) + 1.0;
    std::size_t arg = 0;
    for (std::size_t e = 0; e < n_; ++e) {
      const std::uint64_t bit = 1ULL << e;
      const double candidate =
          1.0 + q_ * value(bit, bit) + p_ * value(bit, 0);
      if (candidate < best) {
        best = candidate;
        arg = e;
      }
    }
    return arg;
  }

 private:
  CharTable table_;
  std::size_t n_;
  double p_;
  double q_;
  std::unordered_map<std::uint64_t, double> memo_;
};

class YaoSolver {
 public:
  YaoSolver(const QuorumSystem& system,
            const ColoringDistribution& distribution)
      : table_(system), n_(system.universe_size()) {
    for (std::size_t i = 0; i < distribution.size(); ++i) {
      support_.push_back(distribution.coloring(i).greens().to_mask());
      weight_.push_back(distribution.weight(i));
    }
  }

  double solve() {
    std::vector<std::uint32_t> all(support_.size());
    for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    return value(0, 0, all);
  }

 private:
  double value(std::uint64_t probed, std::uint64_t greens,
               const std::vector<std::uint32_t>& consistent) {
    if (table_.is_terminal(probed, greens)) return 0.0;
    QPS_CHECK(!consistent.empty(),
              "reached a knowledge state outside the support");
    const std::uint64_t key = (probed << n_) | greens;
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    double total_weight = 0.0;
    for (auto i : consistent) total_weight += weight_[i];

    double best = static_cast<double>(n_) + 1.0;
    std::vector<std::uint32_t> green_side, red_side;
    for (std::size_t e = 0; e < n_; ++e) {
      const std::uint64_t bit = 1ULL << e;
      if (probed & bit) continue;
      green_side.clear();
      red_side.clear();
      double green_weight = 0.0;
      for (auto i : consistent) {
        if (support_[i] & bit) {
          green_side.push_back(i);
          green_weight += weight_[i];
        } else {
          red_side.push_back(i);
        }
      }
      double candidate = 1.0;
      if (!green_side.empty())
        candidate += green_weight / total_weight *
                     value(probed | bit, greens | bit, green_side);
      if (!red_side.empty())
        candidate += (total_weight - green_weight) / total_weight *
                     value(probed | bit, greens, red_side);
      if (candidate < best) best = candidate;
    }
    memo_.emplace(key, best);
    return best;
  }

  CharTable table_;
  std::size_t n_;
  std::vector<std::uint64_t> support_;
  std::vector<double> weight_;
  std::unordered_map<std::uint64_t, double> memo_;
};

}  // namespace

std::size_t pc_exact_recursive(const QuorumSystem& system) {
  QPS_REQUIRE(system.universe_size() <= 14,
              "legacy recursive PC limited to n <= 14");
  PcSolver solver(system);
  return solver.solve();
}

double ppc_exact_recursive(const QuorumSystem& system, double p) {
  QPS_REQUIRE(system.universe_size() <= 14,
              "legacy recursive PPC limited to n <= 14");
  PpcSolver solver(system, p);
  return solver.value(0, 0);
}

std::size_t ppc_optimal_first_probe_recursive(const QuorumSystem& system,
                                              double p) {
  QPS_REQUIRE(system.universe_size() <= 14,
              "legacy recursive PPC limited to n <= 14");
  PpcSolver solver(system, p);
  return solver.best_first_probe();
}

double yao_bound_recursive(const QuorumSystem& system,
                           const ColoringDistribution& distribution) {
  QPS_REQUIRE(system.universe_size() <= 20,
              "legacy recursive Yao bound limited to n <= 20");
  YaoSolver solver(system, distribution);
  return solver.solve();
}

}  // namespace qps::exact::legacy
