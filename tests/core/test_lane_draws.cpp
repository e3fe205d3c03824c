// Stream v5 lane draws (core/engine/batch_kernel.h): the rejection-round
// uniform draw, the lane-major Fisher-Yates shuffle (its bit-sliced row
// swaps against its scalar per-lane reading), and the randomized
// strategies' drawn choices.  Each distribution is checked at a fixed seed
// over 2^16 lanes with a chi-square test against uniform.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_tree.h"
#include "core/engine/batch_kernel.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/tree_system.h"

namespace qps {
namespace {

constexpr std::size_t kGroups = 1024;  // 2^16 lanes

/// Chi-square statistic of `counts` against a uniform spread over
/// `categories` cells (cells never seen count as zero).
double chi_square(const std::map<std::string, std::size_t>& counts,
                  std::size_t categories) {
  std::size_t total = 0;
  for (const auto& [key, count] : counts) total += count;
  const double expected =
      static_cast<double>(total) / static_cast<double>(categories);
  double chi = 0.0;
  for (const auto& [key, count] : counts) {
    const double d = static_cast<double>(count) - expected;
    chi += d * d / expected;
  }
  chi += expected * static_cast<double>(categories - counts.size());
  return chi;
}

/// The upper 10^-4 quantile of chi-square with `df` degrees of freedom
/// (Wilson-Hilferty).
double chi_square_bound(std::size_t df) {
  const double k = static_cast<double>(df);
  const double z = 3.719;
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}

std::string key_of(const std::vector<std::uint32_t>& values) {
  std::string key;
  for (const std::uint32_t v : values) key += std::to_string(v) + ",";
  return key;
}

TEST(LaneDraws, BelowAcceptsEveryLaneAndDrawsWholeRounds) {
  Rng rng(3);
  for (const std::uint64_t bound :
       {2ULL, 3ULL, 5ULL, 6ULL, 8ULL, 63ULL, 64ULL, 65ULL, 1ULL << 32}) {
    const auto bits = static_cast<std::size_t>(std::bit_width(bound - 1));
    for (int rep = 0; rep < 50; ++rep) {
      Rng before = rng;
      std::uint64_t planes[32];
      ASSERT_EQ(draw_lane_below(rng, bound, planes), bits);
      for (std::size_t lane = 0; lane < 64; ++lane)
        ASSERT_LT(lane_value(planes, bits, lane), bound) << bound;
      // Whole rounds only: the generator moved by a multiple of `bits`
      // words (found by stepping a copy until its next word is rng's).
      std::size_t words = 0;
      for (Rng probe = before;; ++words) {
        Rng a = probe;
        Rng b = rng;
        if (a.next_u64() == b.next_u64()) break;
        probe.next_u64();
        ASSERT_LT(words, 4096u) << bound;
      }
      EXPECT_EQ(words % bits, 0u) << bound;
    }
  }
}

TEST(LaneDraws, PowerOfTwoBoundsDrawExactlyOneRound) {
  for (const std::uint64_t bound : {2ULL, 4ULL, 64ULL, 1ULL << 32}) {
    const auto bits = static_cast<std::size_t>(std::bit_width(bound - 1));
    Rng rng(bound);
    Rng reference(bound);
    std::uint64_t planes[32];
    draw_lane_below(rng, bound, planes);
    for (std::size_t b = 0; b < bits; ++b)
      EXPECT_EQ(planes[b], reference.next_u64()) << bound;
    EXPECT_EQ(rng.next_u64(), reference.next_u64()) << bound;
  }
}

TEST(LaneDraws, ShufflesAreUniformAndBitSlicedEqualsScalar) {
  // Every lane's permutation, read per lane (shuffle_from_lane) and by
  // the bit-sliced row swaps of BatchTrialBlock::shuffle_rows on rows
  // that carry the items' index bits, must agree; and over 2^16 lanes all
  // n! orders must be equally likely.
  for (const std::size_t n : {2u, 3u, 4u, 5u}) {
    Rng rng(100 + n);
    std::vector<std::uint64_t> shuffle(lane_shuffle_words(n));
    const auto index_bits = static_cast<std::size_t>(std::bit_width(n - 1));
    BatchTrialBlock block;
    block.configure(resolve_simd_kernels(SimdIsa::kOff), n);
    std::map<std::string, std::size_t> counts;
    for (std::size_t g = 0; g < kGroups; ++g) {
      ASSERT_EQ(draw_lane_shuffle(rng, n, shuffle.data()), shuffle.size());
      // sliced[lane][pos]: the item the bit-sliced swaps put at pos.
      std::vector<std::vector<std::uint32_t>> sliced(
          64, std::vector<std::uint32_t>(n, 0));
      for (std::size_t q = 0; q < index_bits; ++q) {
        std::vector<std::uint64_t> rows(n);
        for (std::size_t e = 0; e < n; ++e)
          rows[e] = ((e >> q) & 1U) != 0 ? ~0ULL : 0ULL;
        block.load_lanes(rows.data(), 64);
        ASSERT_EQ(block.shuffle_rows(0, shuffle.data(), 0, n),
                  shuffle.size());
        const BlockView view = block.view();
        for (std::size_t lane = 0; lane < 64; ++lane)
          for (std::size_t pos = 0; pos < n; ++pos)
            sliced[lane][pos] |=
                static_cast<std::uint32_t>((view.greens[pos] >> lane) & 1U)
                << q;
      }
      for (std::size_t lane = 0; lane < 64; ++lane) {
        std::vector<std::uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        ASSERT_EQ(shuffle_from_lane(shuffle.data(), lane, order.data(), n),
                  shuffle.size());
        ASSERT_EQ(sliced[lane], order) << "n=" << n << " lane=" << lane;
        ++counts[key_of(order)];
      }
    }
    std::size_t factorial = 1;
    for (std::size_t i = 2; i <= n; ++i) factorial *= i;
    EXPECT_EQ(counts.size(), factorial) << n;
    EXPECT_LT(chi_square(counts, factorial), chi_square_bound(factorial - 1))
        << "n=" << n;
  }
}

TEST(LaneDraws, TreePlansAreUniformTrits) {
  // Tree7's three internal nodes: each lane holds exactly one plan per
  // node, and the 27 joint plan triples are equally likely.
  const TreeSystem tree(2);
  const RProbeTree strategy(tree);
  ASSERT_EQ(strategy.lane_choice_words(), 9u);
  std::vector<std::uint64_t> masks(9);
  Rng rng(5);
  std::map<std::string, std::size_t> counts;
  for (std::size_t g = 0; g < kGroups; ++g) {
    strategy.draw_lane_choices(rng, masks.data());
    for (std::size_t v = 0; v < 3; ++v)
      ASSERT_EQ(masks[v * 3] ^ masks[v * 3 + 1] ^ masks[v * 3 + 2], ~0ULL);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      std::vector<std::uint32_t> plans;
      for (std::size_t v = 0; v < 3; ++v)
        for (std::uint32_t p = 0; p < 3; ++p)
          if ((masks[v * 3 + p] >> lane) & 1ULL) plans.push_back(p);
      ASSERT_EQ(plans.size(), 3u);
      ++counts[key_of(plans)];
    }
  }
  EXPECT_EQ(counts.size(), 27u);
  EXPECT_LT(chi_square(counts, 27), chi_square_bound(26));
}

TEST(LaneDraws, HqsGateOrdersAreUniformOverS3) {
  // Hqs9's four gates: per lane and gate, one first child, one second
  // child different from it; each gate's 6 orders equally likely, and the
  // root's order independent of the first child gate's (36 pairs).
  const HQSystem hqs(2);
  const RProbeHQS strategy(hqs);
  ASSERT_EQ(strategy.lane_choice_words(), 24u);
  std::vector<std::uint64_t> masks(24);
  Rng rng(6);
  std::vector<std::map<std::string, std::size_t>> per_gate(4);
  std::map<std::string, std::size_t> pairs;
  for (std::size_t g = 0; g < kGroups; ++g) {
    strategy.draw_lane_choices(rng, masks.data());
    for (std::size_t lane = 0; lane < 64; ++lane) {
      std::vector<std::uint32_t> orders;
      for (std::size_t gate = 0; gate < 4; ++gate) {
        std::vector<std::uint32_t> first, second;
        for (std::uint32_t c = 0; c < 3; ++c) {
          if ((masks[gate * 6 + c] >> lane) & 1ULL) first.push_back(c);
          if ((masks[gate * 6 + 3 + c] >> lane) & 1ULL) second.push_back(c);
        }
        ASSERT_EQ(first.size(), 1u);
        ASSERT_EQ(second.size(), 1u);
        ASSERT_NE(first[0], second[0]);
        orders.push_back(first[0] * 3 + second[0]);
        ++per_gate[gate][key_of({orders.back()})];
      }
      ++pairs[key_of({orders[0], orders[1]})];
    }
  }
  for (std::size_t gate = 0; gate < 4; ++gate) {
    EXPECT_EQ(per_gate[gate].size(), 6u) << gate;
    EXPECT_LT(chi_square(per_gate[gate], 6), chi_square_bound(5)) << gate;
  }
  EXPECT_EQ(pairs.size(), 36u);
  EXPECT_LT(chi_square(pairs, 36), chi_square_bound(35));
}

TEST(LaneDraws, CwRowOrdersAreUniformAndIndependent) {
  // A wall with rows of widths 1, 3 and 4: the choices are the rows'
  // shuffles, bottom-up; the joint within-row orders of the two wide rows
  // (6 * 24 = 144 of them) are equally likely.
  const CrumblingWall wall({1, 3, 4});
  const RProbeCW strategy(wall);
  ASSERT_EQ(strategy.lane_choice_words(),
            lane_shuffle_words(4) + lane_shuffle_words(3));
  std::vector<std::uint64_t> choices(strategy.lane_choice_words());
  Rng rng(7);
  std::map<std::string, std::size_t> counts;
  for (std::size_t g = 0; g < kGroups; ++g) {
    strategy.draw_lane_choices(rng, choices.data());
    for (std::size_t lane = 0; lane < 64; ++lane) {
      std::vector<std::uint32_t> orders = {4, 5, 6, 7, 1, 2, 3};
      const std::size_t used =
          shuffle_from_lane(choices.data(), lane, orders.data(), 4);
      shuffle_from_lane(choices.data() + used, lane, orders.data() + 4, 3);
      ++counts[key_of(orders)];
    }
  }
  EXPECT_EQ(counts.size(), 144u);
  EXPECT_LT(chi_square(counts, 144), chi_square_bound(143));
}

}  // namespace
}  // namespace qps
