#include "core/exact/pcr_exact.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "core/exact/char_table.h"
#include "math/game.h"
#include "util/require.h"

namespace qps {

namespace {

// A strategy's observable behaviour is its cost on every coloring; two
// strategies with equal cost vectors are interchangeable in the game.
using CostVec = std::vector<std::uint8_t>;

/// Lexicographic order on equal-length cost vectors: the first differing
/// coloring decides.  (Spelled out with std::mismatch: std::vector's own
/// operator< lowers to a memcmp whose bound GCC cannot prove in range and
/// reports under -Wstringop-overread.)
struct CostVecLess {
  bool operator()(const CostVec& a, const CostVec& b) const {
    const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin());
    return ia != a.end() && *ia < *ib;
  }
};

class StrategyEnumerator {
 public:
  explicit StrategyEnumerator(const QuorumSystem& system)
      : table_(system),
        n_(system.universe_size()),
        coloring_count_(std::size_t{1} << n_) {}

  /// All deduplicated strategy cost vectors from the empty knowledge state.
  std::vector<CostVec> enumerate() {
    const auto& result = strategies(0, 0);
    std::vector<CostVec> out = result;
    return out;
  }

 private:
  static constexpr std::size_t kBudget = 200000;

  const std::vector<CostVec>& strategies(std::uint64_t probed,
                                         std::uint64_t greens) {
    const std::uint64_t key = (probed << n_) | greens;
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    std::vector<CostVec> out;
    if (table_.is_terminal(probed, greens)) {
      out.emplace_back(coloring_count_, 0);
    } else {
      std::set<CostVec, CostVecLess> seen;
      for (std::size_t e = 0; e < n_; ++e) {
        const std::uint64_t bit = 1ULL << e;
        if (probed & bit) continue;
        const auto& green_sub = strategies(probed | bit, greens | bit);
        const auto& red_sub = strategies(probed | bit, greens);
        for (const auto& sg : green_sub) {
          for (const auto& sr : red_sub) {
            CostVec combined(coloring_count_, 0);
            // Only colorings consistent with this knowledge state matter;
            // fill all entries anyway (inconsistent ones are never read
            // at the root, where everything is consistent).
            for (std::size_t c = 0; c < coloring_count_; ++c) {
              if ((c & probed) != greens) continue;  // unreachable here
              combined[c] = static_cast<std::uint8_t>(
                  1 + ((c & bit) ? sg[c] : sr[c]));
            }
            seen.insert(std::move(combined));
            QPS_REQUIRE(seen.size() <= kBudget,
                        "strategy enumeration exceeded its budget");
          }
        }
      }
      out.assign(seen.begin(), seen.end());
    }
    return memo_.emplace(key, std::move(out)).first->second;
  }

  CharTable table_;
  std::size_t n_;
  std::size_t coloring_count_;
  std::unordered_map<std::uint64_t, std::vector<CostVec>> memo_;
};

}  // namespace

PcrResult pcr_exact(const QuorumSystem& system) {
  QPS_REQUIRE(system.universe_size() <= 5,
              "exact PCR limited to n <= 5 (strategy enumeration)");
  StrategyEnumerator enumerator(system);
  const std::vector<CostVec> strategies = enumerator.enumerate();
  QPS_CHECK(!strategies.empty(), "no strategies enumerated");

  const std::size_t colorings = std::size_t{1} << system.universe_size();
  // Rows: adversary colorings (maximizer).  Columns: prober strategies.
  std::vector<std::vector<double>> cost(colorings,
                                        std::vector<double>(strategies.size()));
  for (std::size_t c = 0; c < colorings; ++c)
    for (std::size_t s = 0; s < strategies.size(); ++s)
      cost[c][s] = static_cast<double>(strategies[s][c]);

  const GameSolution solution = solve_zero_sum_game(cost);
  PcrResult result;
  result.value = solution.value;
  result.strategy_count = strategies.size();
  result.hard_distribution = solution.row_strategy;
  return result;
}

}  // namespace qps
