#include "core/expectation.h"

#include <cmath>
#include <unordered_map>
#include <vector>

#include "core/formulas.h"
#include "util/require.h"

namespace qps {

double r_probe_maj_expectation(const MajoritySystem& system,
                               const Coloring& coloring) {
  return r_probe_maj_expected(system.universe_size(), coloring.red_count())
      .to_double();
}

double r_probe_cw_expectation(const CrumblingWall& wall,
                              const Coloring& coloring) {
  QPS_REQUIRE(coloring.universe_size() == wall.universe_size(),
              "coloring over the wrong universe");
  double total = 0.0;
  for (std::size_t row = wall.row_count(); row-- > 0;) {
    std::size_t greens = 0, reds = 0;
    for (Element e = wall.row_begin(row); e < wall.row_end(row); ++e) {
      if (coloring.color(e) == Color::kGreen)
        ++greens;
      else
        ++reds;
    }
    if (greens == 0 || reds == 0) {
      // Monochromatic row: the scan exhausts it and stops.
      total += static_cast<double>(greens + reds);
      return total;
    }
    // Lemma 2.9: expected draws until both colors are seen.
    const auto g = static_cast<double>(greens);
    const auto r = static_cast<double>(reds);
    total += 1.0 + r / (g + 1.0) + g / (r + 1.0);
  }
  QPS_CHECK(false, "the width-1 top row is always monochromatic");
  return total;
}

namespace {

// ------------------------------------------------------------ R_Probe_Tree

struct TreeEval {
  bool live = false;    // does the subtree contain a green quorum?
  double cost = 0.0;    // E[probes] of r_probe_tree on the subtree
};

TreeEval tree_eval(const TreeSystem& tree, Element v,
                   const Coloring& coloring) {
  const bool root_green = coloring.color(v) == Color::kGreen;
  if (tree.is_leaf(v)) return {root_green, 1.0};
  const TreeEval left = tree_eval(tree, TreeSystem::left_child(v), coloring);
  const TreeEval right = tree_eval(tree, TreeSystem::right_child(v), coloring);
  TreeEval out;
  out.live = (left.live && right.live) ||
             (root_green && (left.live || right.live));
  // Witness colors equal the subtree liveness; the root's probed color is
  // the element's own color.
  const bool cl = left.live, cr = right.live;
  const double plan_right =
      1.0 + right.cost + (cr == root_green ? 0.0 : left.cost);
  const double plan_left =
      1.0 + left.cost + (cl == root_green ? 0.0 : right.cost);
  const double plan_both =
      left.cost + right.cost + (cl == cr ? 0.0 : 1.0);
  out.cost = (plan_right + plan_left + plan_both) / 3.0;
  return out;
}

// ------------------------------------------------------- HQS gate values

struct HqsNode {
  std::size_t level;
  std::size_t index;
};

bool hqs_value(const HQSystem& hqs, const Coloring& coloring,
               std::size_t level, std::size_t index,
               std::vector<std::unordered_map<std::size_t, bool>>& memo) {
  if (level == 0)
    return coloring.color(static_cast<Element>(index)) == Color::kGreen;
  auto& level_memo = memo[level];
  const auto it = level_memo.find(index);
  if (it != level_memo.end()) return it->second;
  int ones = 0;
  for (std::size_t c = 0; c < 3; ++c)
    if (hqs_value(hqs, coloring, level - 1, index * 3 + c, memo)) ++ones;
  const bool value = ones >= 2;
  level_memo.emplace(index, value);
  return value;
}

// ------------------------------------------------------------ R_Probe_HQS

double r_hqs_cost(const HQSystem& hqs, const Coloring& coloring,
                  std::size_t level, std::size_t index,
                  std::vector<std::unordered_map<std::size_t, bool>>& values) {
  if (level == 0) return 1.0;
  bool b[3];
  double cost[3];
  for (std::size_t c = 0; c < 3; ++c) {
    b[c] = hqs_value(hqs, coloring, level - 1, index * 3 + c, values);
    cost[c] = r_hqs_cost(hqs, coloring, level - 1, index * 3 + c, values);
  }
  // The first two evaluated children form a uniform unordered pair.
  double total = 0.0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = i + 1; j < 3; ++j) {
      const std::size_t k = 3 - i - j;
      total += cost[i] + cost[j] + (b[i] != b[j] ? cost[k] : 0.0);
    }
  return total / 3.0;
}

// ----------------------------------------------------------- IR_Probe_HQS

class IrEvaluator {
 public:
  IrEvaluator(const HQSystem& hqs, const Coloring& coloring)
      : hqs_(&hqs), coloring_(&coloring), values_(hqs.height() + 1) {}

  /// E[probes] of IR_Probe_HQS's recursive evaluation of a node.
  double ir_cost(std::size_t level, std::size_t index) {
    if (level <= 1) return full_eval_cost(level, index);
    const auto key = level * 1000003 + index;
    const auto it = ir_memo_.find(key);
    if (it != ir_memo_.end()) return it->second;

    double total = 0.0;
    const std::size_t child[3] = {index * 3, index * 3 + 1, index * 3 + 2};
    for (std::size_t a = 0; a < 3; ++a) {        // r1 choice, prob 1/3
      const bool v1 = value(level - 1, child[a]);
      const double c1 = full_eval_cost(level - 1, child[a]);
      for (std::size_t pick = 0; pick < 2; ++pick) {  // r2 choice, prob 1/2
        const std::size_t bidx = (a + 1 + pick) % 3;
        const std::size_t cidx = (a + 1 + (1 - pick)) % 3;
        const std::size_t r2 = child[bidx];
        const std::size_t r3 = child[cidx];
        const bool v3 = value(level - 1, r3);
        const double c3 = full_eval_cost(level - 1, r3);
        const std::size_t grand[3] = {r2 * 3, r2 * 3 + 1, r2 * 3 + 2};
        for (std::size_t g = 0; g < 3; ++g) {    // grandchild peek, prob 1/3
          const bool gv = value(level - 2, grand[g]);
          const double gc = ir_cost(level - 2, grand[g]);
          double branch = c1 + gc;
          const bool v2 = value(level - 1, r2);
          const double completion = completion_cost(level, grand, g);
          if (gv == v1) {
            branch += completion;                 // step 5: finish r2
            if (v2 != v1) branch += c3;           // tie broken by r3
          } else {
            branch += c3;                         // step 6: r3 first
            if (v3 != v1) branch += completion;   // then finish r2
          }
          total += branch / (3.0 * 2.0 * 3.0);
        }
      }
    }
    ir_memo_.emplace(key, total);
    return total;
  }

 private:
  bool value(std::size_t level, std::size_t index) {
    return hqs_value(*hqs_, *coloring_, level, index, values_);
  }

  /// E[probes] of "evaluate node": random child order, 2-of-3 shortcut,
  /// children evaluated with ir_cost.
  double full_eval_cost(std::size_t level, std::size_t index) {
    if (level == 0) return 1.0;
    const auto key = level * 1000003 + index;
    const auto it = full_memo_.find(key);
    if (it != full_memo_.end()) return it->second;
    bool b[3];
    double cost[3];
    for (std::size_t c = 0; c < 3; ++c) {
      b[c] = value(level - 1, index * 3 + c);
      cost[c] = ir_cost(level - 1, index * 3 + c);
    }
    double total = 0.0;
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = i + 1; j < 3; ++j) {
        const std::size_t k = 3 - i - j;
        total += cost[i] + cost[j] + (b[i] != b[j] ? cost[k] : 0.0);
      }
    total /= 3.0;
    full_memo_.emplace(key, total);
    return total;
  }

  /// E[probes] to finish evaluating r2 after its grandchild `grand[g]` is
  /// known: visit the two remaining grandchildren in random order with the
  /// 2-of-3 shortcut.
  double completion_cost(std::size_t level, const std::size_t grand[3],
                         std::size_t g) {
    const std::size_t r0 = grand[(g + 1) % 3];
    const std::size_t r1 = grand[(g + 2) % 3];
    const bool gv = value(level - 2, grand[g]);
    const bool b0 = value(level - 2, r0);
    const bool b1 = value(level - 2, r1);
    const double c0 = ir_cost(level - 2, r0);
    const double c1 = ir_cost(level - 2, r1);
    const double order_a = c0 + (b0 == gv ? 0.0 : c1);
    const double order_b = c1 + (b1 == gv ? 0.0 : c0);
    return (order_a + order_b) / 2.0;
  }

  const HQSystem* hqs_;
  const Coloring* coloring_;
  std::vector<std::unordered_map<std::size_t, bool>> values_;
  std::unordered_map<std::size_t, double> ir_memo_;
  std::unordered_map<std::size_t, double> full_memo_;
};

}  // namespace

double r_probe_tree_expectation(const TreeSystem& tree,
                                const Coloring& coloring) {
  QPS_REQUIRE(coloring.universe_size() == tree.universe_size(),
              "coloring over the wrong universe");
  return tree_eval(tree, TreeSystem::kRoot, coloring).cost;
}

double r_probe_hqs_expectation(const HQSystem& hqs, const Coloring& coloring) {
  QPS_REQUIRE(coloring.universe_size() == hqs.universe_size(),
              "coloring over the wrong universe");
  std::vector<std::unordered_map<std::size_t, bool>> values(hqs.height() + 1);
  return r_hqs_cost(hqs, coloring, hqs.height(), 0, values);
}

double ir_probe_hqs_expectation(const HQSystem& hqs,
                                const Coloring& coloring) {
  QPS_REQUIRE(coloring.universe_size() == hqs.universe_size(),
              "coloring over the wrong universe");
  IrEvaluator evaluator(hqs, coloring);
  return evaluator.ir_cost(hqs.height(), 0);
}

double ir_probe_hqs_ppc(const HQSystem& hqs, double p) {
  QPS_REQUIRE(hqs.height() <= 2, "ir_probe_hqs_ppc enumerates heights <= 2");
  QPS_REQUIRE(p >= 0.0 && p <= 1.0, "p must lie in [0, 1]");
  const std::size_t n = hqs.universe_size();
  long double total = 0.0;
  for (std::uint64_t greens = 0; greens < (std::uint64_t{1} << n); ++greens) {
    const Coloring coloring(n, ElementSet::from_mask(n, greens));
    const double weight =
        std::pow(p, static_cast<double>(coloring.red_count())) *
        std::pow(1.0 - p, static_cast<double>(coloring.green_count()));
    total += weight * ir_probe_hqs_expectation(hqs, coloring);
  }
  return static_cast<double>(total);
}

}  // namespace qps
