#include "core/coloring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

namespace qps {
namespace {

TEST(Coloring, DefaultAllRed) {
  const Coloring c(5);
  for (Element e = 0; e < 5; ++e) EXPECT_EQ(c.color(e), Color::kRed);
  EXPECT_EQ(c.green_count(), 0u);
  EXPECT_EQ(c.red_count(), 5u);
}

TEST(Coloring, FromGreenSet) {
  const Coloring c(5, ElementSet(5, {1, 3}));
  EXPECT_EQ(c.color(1), Color::kGreen);
  EXPECT_EQ(c.color(3), Color::kGreen);
  EXPECT_EQ(c.color(0), Color::kRed);
  EXPECT_EQ(c.green_count(), 2u);
  EXPECT_EQ(c.reds(), ElementSet(5, {0, 2, 4}));
}

TEST(Coloring, WithFlipsOneElement) {
  const Coloring c(3);
  const Coloring d = c.with(1, Color::kGreen);
  EXPECT_EQ(c.color(1), Color::kRed);
  EXPECT_EQ(d.color(1), Color::kGreen);
  EXPECT_EQ(d.with(1, Color::kRed), c);
}

TEST(Coloring, OppositeColor) {
  EXPECT_EQ(opposite(Color::kRed), Color::kGreen);
  EXPECT_EQ(opposite(Color::kGreen), Color::kRed);
  EXPECT_EQ(to_string(Color::kGreen), "green");
  EXPECT_EQ(to_string(Color::kRed), "red");
}

TEST(Coloring, IidSamplerMatchesP) {
  Rng rng(42);
  const std::size_t n = 1000;
  double reds = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t)
    reds += static_cast<double>(sample_iid_coloring(n, 0.3, rng).red_count());
  EXPECT_NEAR(reds / (n * trials), 0.3, 0.01);
}

TEST(Coloring, IidExtremes) {
  Rng rng(1);
  EXPECT_EQ(sample_iid_coloring(20, 0.0, rng).red_count(), 0u);
  EXPECT_EQ(sample_iid_coloring(20, 1.0, rng).red_count(), 20u);
}

TEST(ColoringDistribution, NormalizesWeights) {
  ColoringDistribution d({Coloring(2), Coloring(2, ElementSet(2, {0}))},
                         {3.0, 1.0});
  EXPECT_DOUBLE_EQ(d.weight(0), 0.75);
  EXPECT_DOUBLE_EQ(d.weight(1), 0.25);
}

TEST(ColoringDistribution, SamplingFollowsWeights) {
  ColoringDistribution d({Coloring(2), Coloring(2, ElementSet(2, {0}))},
                         {3.0, 1.0});
  Rng rng(5);
  int first = 0;
  const int trials = 40000;
  for (int t = 0; t < trials; ++t)
    if (d.sample(rng).green_count() == 0) ++first;
  EXPECT_NEAR(static_cast<double>(first) / trials, 0.75, 0.01);
}

TEST(ColoringDistribution, Validation) {
  EXPECT_THROW(ColoringDistribution({}, {}), std::invalid_argument);
  EXPECT_THROW(ColoringDistribution({Coloring(2)}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(ColoringDistribution({Coloring(2)}, {-1.0}),
               std::invalid_argument);
  EXPECT_THROW(ColoringDistribution({Coloring(2)}, {0.0}),
               std::invalid_argument);
}

TEST(HardDistributions, MajSupportIsAllMajorityRedColorings) {
  const auto d = maj_hard_distribution(5);
  EXPECT_EQ(d.size(), 10u);  // C(5,3) red choices == C(5,2) green choices
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.coloring(i).red_count(), 3u);
    seen.insert(d.coloring(i).greens().to_mask());
    EXPECT_DOUBLE_EQ(d.weight(i), 0.1);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(HardDistributions, CwOneGreenPerRow) {
  const CrumblingWall wall({1, 2, 3});
  const auto d = cw_hard_distribution(wall);
  EXPECT_EQ(d.size(), 6u);  // 1 * 2 * 3
  for (std::size_t i = 0; i < d.size(); ++i) {
    const Coloring& c = d.coloring(i);
    for (std::size_t row = 0; row < wall.row_count(); ++row) {
      std::size_t greens = 0;
      for (Element e = wall.row_begin(row); e < wall.row_end(row); ++e)
        if (c.color(e) == Color::kGreen) ++greens;
      EXPECT_EQ(greens, 1u) << "row " << row;
    }
  }
}

TEST(HardDistributions, TreeUpperLevelsGreenTwoRedsPerSubtree) {
  const TreeSystem tree(3);  // n = 15; 4 height-1 subtrees
  const auto d = tree_hard_distribution(tree);
  EXPECT_EQ(d.size(), 81u);  // 3^4
  for (std::size_t i = 0; i < d.size(); ++i) {
    const Coloring& c = d.coloring(i);
    // Nodes above the height-1 subtree roots (heap ids 0..2) are green.
    for (Element v = 0; v < 3; ++v) EXPECT_EQ(c.color(v), Color::kGreen);
    // Each height-1 subtree {parent, 2 leaves} has exactly 2 reds.
    for (Element parent = 3; parent <= 6; ++parent) {
      int reds = (c.color(parent) == Color::kRed) +
                 (c.color(TreeSystem::left_child(parent)) == Color::kRed) +
                 (c.color(TreeSystem::right_child(parent)) == Color::kRed);
      EXPECT_EQ(reds, 2) << "subtree at " << parent;
    }
  }
}

TEST(HardDistributions, TreeHeightOneIsWholeTree) {
  const auto d = tree_hard_distribution(TreeSystem(1));
  EXPECT_EQ(d.size(), 3u);
  for (std::size_t i = 0; i < d.size(); ++i)
    EXPECT_EQ(d.coloring(i).red_count(), 2u);
}

TEST(HqsWorstCase, FamilyPStructure) {
  const HQSystem hqs(2);
  const Coloring c = hqs_worst_case_coloring(hqs, Color::kGreen);
  // Root value green: greens contain a quorum, reds do not... (they do not
  // contain a *green* quorum; by self-duality reds contain no quorum).
  EXPECT_TRUE(hqs.contains_quorum(c.greens()));
  // Per family P with values (1,1,0) at the top: subtree leaf counts are
  // {1,1,0}-patterned recursively: greens = 2/3 of (2/3 n) + 1/3 of (1/3 n).
  // For h=2 (n=9): majority children contribute 2 greens each, the
  // minority child 1 green: total 5.
  EXPECT_EQ(c.green_count(), 5u);
}

TEST(IidSampling, WordSamplerIsDeterministic) {
  std::uint64_t a[16], b[16];
  Rng rng_a(123), rng_b(123);
  sample_iid_coloring_words(a, 16, 64, 0.37, rng_a);
  sample_iid_coloring_words(b, 16, 64, 0.37, rng_b);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(a[i], b[i]);
  // One call for 16 masks == two calls for 8 + 8 on the same stream.
  Rng rng_c(123);
  sample_iid_coloring_words(b, 8, 64, 0.37, rng_c);
  sample_iid_coloring_words(b + 8, 8, 64, 0.37, rng_c);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(IidSampling, WordSamplerEdgeProbabilities) {
  std::uint64_t masks[4];
  Rng rng(9);
  sample_iid_coloring_words(masks, 4, 10, 0.0, rng);
  for (auto m : masks) EXPECT_EQ(m, (1ULL << 10) - 1);  // p=0: all green
  sample_iid_coloring_words(masks, 4, 10, 1.0, rng);
  for (auto m : masks) EXPECT_EQ(m, 0ULL);  // p=1: all red
  // Full-word universe at p = 1/2: each mask is one raw uniform word, so
  // four draws must not all collide and greens must be plausible counts.
  sample_iid_coloring_words(masks, 4, 64, 0.5, rng);
  EXPECT_FALSE(masks[0] == masks[1] && masks[1] == masks[2] &&
               masks[2] == masks[3]);
  for (auto m : masks) {
    EXPECT_GT(std::popcount(m), 8);   // P(<= 8 greens) ~ 1e-10
    EXPECT_LT(std::popcount(m), 56);  // symmetric
  }
}

TEST(IidSampling, WordSamplerRespectsTheUniverseBoundary) {
  std::uint64_t masks[64];
  Rng rng(77);
  for (std::size_t n : {1u, 7u, 63u, 64u}) {
    sample_iid_coloring_words(masks, 64, n, 0.4, rng);
    const std::uint64_t universe = n == 64 ? ~0ULL : (1ULL << n) - 1;
    for (auto m : masks) ASSERT_EQ(m & ~universe, 0ULL) << "n=" << n;
  }
}

TEST(IidSampling, WordSamplerMarginalsMatchBernoulli) {
  // Statistical equivalence to the per-element sampler: the green count
  // over many trials must match (1-p) * n well within 6 sigma.  n = 5
  // uses a few lanes of one word, n = 127 two words with a 63-bit tail.
  const std::size_t kTrials = 40000;
  for (const std::size_t n : {5u, 48u, 127u}) {
    const std::size_t stride = (n + 63) / 64;
    std::vector<std::uint64_t> masks(kTrials * stride);
    for (double p : {0.1, 0.37, 0.5, 0.75}) {
      Rng rng(1234);
      sample_iid_coloring_words(masks.data(), kTrials, n, p, rng);
      double greens = 0;
      std::vector<std::size_t> per_element(n, 0);
      for (std::size_t t = 0; t < kTrials; ++t) {
        for (std::size_t e = 0; e < n; ++e) {
          const std::uint64_t bit =
              (masks[t * stride + e / 64] >> (e % 64)) & 1;
          per_element[e] += bit;
          greens += static_cast<double>(bit);
        }
      }
      const double n_trials = static_cast<double>(kTrials);
      const double elems = static_cast<double>(n);
      const double expected = (1.0 - p) * elems * n_trials;
      const double sigma = std::sqrt(elems * p * (1.0 - p) * n_trials);
      EXPECT_NEAR(greens, expected, 6.0 * sigma) << "n=" << n << " p=" << p;
      // And element marginals individually (no positional bias).
      const double elem_sigma = std::sqrt(p * (1.0 - p) * n_trials);
      for (std::size_t e = 0; e < n; ++e)
        ASSERT_NEAR(static_cast<double>(per_element[e]), (1.0 - p) * n_trials,
                    6.0 * elem_sigma)
            << "n=" << n << " p=" << p << " element " << e;
    }
  }
}

TEST(IidSampling, WordSamplerCouplesMonotonicallyAcrossP) {
  // On a shared stream every p consumes the same draws, and a lane red at
  // the smaller p is red at the larger one: the comonotone coupling that
  // keeps CRN E(p) curves smooth along the whole p grid.
  const auto reds_subset = [](double p_lo, double p_hi, std::size_t n) {
    const std::size_t stride = (n + 63) / 64;
    std::vector<std::uint64_t> lo(32 * stride), hi(32 * stride);
    Rng rng_lo(5), rng_hi(5);
    sample_iid_coloring_words(lo.data(), 32, n, p_lo, rng_lo);
    sample_iid_coloring_words(hi.data(), 32, n, p_hi, rng_hi);
    for (std::size_t i = 0; i < lo.size(); ++i)
      if ((~lo[i] & hi[i]) != 0) return false;  // green at p_lo, red at p_hi
    return true;
  };
  EXPECT_TRUE(reds_subset(0.25, 0.75, 64));
  const std::vector<double> grid = {0.1, 0.2, 0.3, 0.4, 0.5,
                                    0.6, 0.7, 0.8, 0.9};
  for (const std::size_t n : {5u, 64u, 127u})
    for (std::size_t i = 0; i < grid.size(); ++i)
      for (std::size_t j = i + 1; j < grid.size(); ++j)
        ASSERT_TRUE(reds_subset(grid[i], grid[j], n))
            << "n=" << n << " p=" << grid[i] << " < " << grid[j];
  Rng pick(2024);
  for (int k = 0; k < 100; ++k) {
    const double a = pick.uniform01();
    const double b = pick.uniform01();
    ASSERT_TRUE(reds_subset(std::min(a, b), std::max(a, b), 63))
        << "p=" << a << ", " << b;
  }
}

TEST(IidSampling, WordSamplerFollowsThePerLaneDefinition) {
  // Rebuild every lane's 53-bit uniform U from the word's one draw d: bit
  // 52 is ~d, bits 51, 50, ... come from successive splitmix64 steps
  // keyed by d.  The element is red iff U < P = ceil(p * 2^53), exactly
  // Rng::bernoulli's acceptance region.
  const double ps[] = {0x1.0p-53, 0.1, 0.37, 0.5, 0.75, 1.0 - 0x1.0p-53};
  for (const double p : ps) {
    const auto threshold =
        static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    for (const std::size_t n : {5u, 63u, 64u, 127u}) {
      const std::size_t stride = (n + 63) / 64;
      // An odd count: whole lockstep groups, groups straddling row
      // boundaries (n = 127) and a tail of single words.
      const std::size_t kCount = 15;
      std::vector<std::uint64_t> masks(kCount * stride);
      Rng rng(99), reference(99);
      sample_iid_coloring_words(masks.data(), kCount, n, p, rng);
      for (std::size_t w = 0; w < masks.size(); ++w) {
        std::uint64_t key = reference.next_u64();
        std::uint64_t planes[53];
        planes[52] = ~key;
        for (int b = 51; b >= 0; --b) planes[b] = splitmix64(key);
        const std::size_t chunk = w % stride;
        const std::size_t lanes = std::min<std::size_t>(64, n - 64 * chunk);
        for (std::size_t e = 0; e < 64; ++e) {
          std::uint64_t u = 0;
          for (int b = 52; b >= 0; --b) u = (u << 1) | ((planes[b] >> e) & 1);
          const bool green = e < lanes && u >= threshold;
          ASSERT_EQ((masks[w] >> e) & 1, green ? 1u : 0u)
              << "p=" << p << " n=" << n << " word " << w << " lane " << e;
        }
      }
      // And the sampler consumed exactly those draws.
      EXPECT_EQ(rng.next_u64(), reference.next_u64()) << "p=" << p;
    }
  }
}

TEST(IidSampling, WordSamplerAdvancesOneDrawPerWord) {
  // For any p in (0, 1) the batch rng moves exactly count * stride draws,
  // so everything drawn after the masks (R strategies' permutations, the
  // next chunk of a split call) lines up across the p grid.
  Rng pick(17);
  for (int k = 0; k < 40; ++k) {
    const double p = pick.uniform01();
    if (p == 0.0) continue;
    for (const std::size_t n : {1u, 5u, 64u, 65u, 129u}) {
      const std::size_t stride = (n + 63) / 64;
      const std::size_t count = 1 + pick.below(50);
      std::vector<std::uint64_t> masks(count * stride);
      Rng rng(k), reference(k);
      sample_iid_coloring_words(masks.data(), count, n, p, rng);
      for (std::size_t i = 0; i < count * stride; ++i) reference.next_u64();
      ASSERT_EQ(rng.next_u64(), reference.next_u64())
          << "p=" << p << " n=" << n << " count=" << count;
    }
  }
}

TEST(IidSampling, WordSamplerAtOneHalfIsTheRawDraw) {
  // P = 2^52 settles every lane on plane 52, so the reds are exactly the
  // set bits of the word's draw: each green mask is that draw's
  // complement, cut to the universe.
  for (const std::size_t n : {7u, 64u, 100u}) {
    const std::size_t stride = (n + 63) / 64;
    std::vector<std::uint64_t> masks(8 * stride);
    Rng rng(3), reference(3);
    sample_iid_coloring_words(masks.data(), 8, n, 0.5, rng);
    for (std::size_t w = 0; w < masks.size(); ++w) {
      const std::size_t lanes =
          std::min<std::size_t>(64, n - 64 * (w % stride));
      const std::uint64_t universe = lanes == 64 ? ~0ULL : (1ULL << lanes) - 1;
      ASSERT_EQ(masks[w], ~reference.next_u64() & universe)
          << "n=" << n << " word " << w;
    }
  }
}

TEST(IidSampling, WordSamplerRejectsBadArguments) {
  std::uint64_t mask;
  Rng rng(1);
  EXPECT_THROW(sample_iid_coloring_words(&mask, 1, 0, 0.5, rng),
               std::invalid_argument);
  EXPECT_THROW(sample_iid_coloring_words(&mask, 1, 8, 1.5, rng),
               std::invalid_argument);
}

TEST(IidSampling, WordSamplerCoversMultiWordUniverses) {
  // n > 64 rows are ceil(n/64) words with the bits above n zeroed in the
  // last word (words are drawn trial-major, then chunk-major).
  Rng rng(31);
  for (const std::size_t n : {65u, 127u, 128u, 129u}) {
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> masks(8 * words);
    sample_iid_coloring_words(masks.data(), 8, n, 0.4, rng);
    const std::size_t rem = n % 64;
    for (std::size_t t = 0; t < 8; ++t) {
      if (rem != 0) {
        ASSERT_EQ(masks[t * words + words - 1] >> rem, 0ULL)
            << "n=" << n << " t=" << t;
      }
      std::size_t greens = 0;
      for (std::size_t w = 0; w < words; ++w)
        greens += std::popcount(masks[t * words + w]);
      ASSERT_LE(greens, n);
    }
  }
}

TEST(ColoringTranspose, MatchesTheBitwiseDefinition) {
  // element_words[e] bit t must equal trial_masks[t] bit e, with lanes
  // beyond trial_count zeroed -- the exact contract the batch kernel's
  // per-element loads rely on.
  Rng rng(77);
  for (const std::size_t n : {1u, 13u, 63u, 64u}) {
    for (const std::size_t count : {1u, 17u, 63u, 64u}) {
      std::vector<std::uint64_t> masks(count);
      sample_iid_coloring_words(masks.data(), count, n, 0.5, rng);
      std::vector<std::uint64_t> words(n);
      transpose_coloring_words(masks.data(), count, words.data(), n);
      for (std::size_t e = 0; e < n; ++e)
        for (std::size_t t = 0; t < 64; ++t)
          ASSERT_EQ((words[e] >> t) & 1ULL,
                    t < count ? (masks[t] >> e) & 1ULL : 0ULL)
              << "n=" << n << " count=" << count << " e=" << e << " t=" << t;
    }
  }
}

TEST(ColoringTranspose, RoundTripsThroughItself) {
  // Transposing twice (64 full lanes both ways) is the identity.
  Rng rng(123);
  std::uint64_t masks[64], once[64], twice[64];
  sample_iid_coloring_words(masks, 64, 64, 0.3, rng);
  transpose_coloring_words(masks, 64, once, 64);
  transpose_coloring_words(once, 64, twice, 64);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(twice[i], masks[i]) << i;
}

TEST(ColoringTranspose, RejectsBadArguments) {
  std::uint64_t mask = 1, out[1];
  EXPECT_THROW(transpose_coloring_words(&mask, 1, out, 0),
               std::invalid_argument);
  EXPECT_THROW(transpose_coloring_words(&mask, 1, out, 65),
               std::invalid_argument);
  EXPECT_THROW(transpose_coloring_words(&mask, 65, out, 1),
               std::invalid_argument);
}

TEST(LaneSampling, IsOneWordSamplerCallOverGroupsTimesElements) {
  // Stream v4: a batch of `count` trials is G*n lane words (G = ceil(count
  // / 64)), drawn by a single sample_iid_coloring_words(G*n, 64) call,
  // word (g, e) = element e across trials 64g .. 64g+63.  Trial t's row bit
  // e is then bit t mod 64 of word (t/64, e).
  for (const std::size_t n : {1u, 5u, 63u, 64u, 65u, 127u, 200u}) {
    const std::size_t stride = (n + 63) / 64;
    for (const std::size_t count : {1u, 64u, 100u, 256u}) {
      for (const double p : {0.0, 0.3, 0.5, 1.0}) {
        const std::size_t groups = (count + 63) / 64;
        std::vector<std::uint64_t> lanes(groups * n), words(groups * n);
        Rng rng(n * 1000 + count), reference(n * 1000 + count);
        sample_iid_lane_words(lanes.data(), count, n, p, rng);
        sample_iid_coloring_words(words.data(), groups * n, 64, p, reference);
        ASSERT_EQ(lanes, words) << "n=" << n << " count=" << count;
        ASSERT_EQ(rng.next_u64(), reference.next_u64())
            << "n=" << n << " count=" << count << " p=" << p;

        std::vector<std::uint64_t> rows(count * stride, ~0ULL);
        transpose_lane_words_to_rows(lanes.data(), count, n, 1, n,
                                     rows.data());
        for (std::size_t t = 0; t < count; ++t) {
          for (std::size_t e = 0; e < 64 * stride; ++e) {
            const std::uint64_t want =
                e < n ? (lanes[(t / 64) * n + e] >> (t % 64)) & 1ULL : 0ULL;
            ASSERT_EQ((rows[t * stride + e / 64] >> (e % 64)) & 1ULL, want)
                << "n=" << n << " count=" << count << " t=" << t
                << " e=" << e;
          }
        }
      }
    }
  }
}

TEST(LaneSampling, RowsToLanesToRowsIsTheIdentity) {
  // transpose_coloring_words_strided and transpose_lane_words_to_rows are
  // inverse on every trial count, partial last groups included, in both
  // lane layouts: the kernel's element rows (W, 1) and the sampler's
  // groups (1, n).
  Rng rng(2718);
  for (const std::size_t n : {1u, 5u, 63u, 64u, 65u, 127u, 200u}) {
    const std::size_t stride = (n + 63) / 64;
    for (std::size_t count = 1; count <= 256; ++count) {
      const std::size_t groups = (count + 63) / 64;
      std::vector<std::uint64_t> rows(count * stride);
      sample_iid_coloring_words(rows.data(), count, n, 0.5, rng);
      std::vector<std::uint64_t> element_rows(n * groups);
      transpose_coloring_words_strided(rows.data(), count, n, groups,
                                       element_rows.data());
      std::vector<std::uint64_t> back(count * stride, ~0ULL);
      transpose_lane_words_to_rows(element_rows.data(), count, n, groups, 1,
                                   back.data());
      ASSERT_EQ(back, rows) << "n=" << n << " count=" << count;

      std::vector<std::uint64_t> sampler_groups(groups * n);
      for (std::size_t g = 0; g < groups; ++g)
        for (std::size_t e = 0; e < n; ++e)
          sampler_groups[g * n + e] = element_rows[e * groups + g];
      std::fill(back.begin(), back.end(), ~0ULL);
      transpose_lane_words_to_rows(sampler_groups.data(), count, n, 1, n,
                                   back.data());
      ASSERT_EQ(back, rows) << "n=" << n << " count=" << count;
    }
  }
}

TEST(HqsWorstCase, RedRootIsComplementary) {
  const HQSystem hqs(2);
  const Coloring g = hqs_worst_case_coloring(hqs, Color::kGreen);
  const Coloring r = hqs_worst_case_coloring(hqs, Color::kRed);
  // Swapping the root value complements every leaf.
  for (Element e = 0; e < 9; ++e)
    EXPECT_EQ(g.color(e), opposite(r.color(e)));
  EXPECT_FALSE(hqs.contains_quorum(r.greens()));
}

}  // namespace
}  // namespace qps
