#include "core/coloring.h"

#include <gtest/gtest.h>

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
  // over many trials must match (1-p) * n well within 6 sigma.
  const std::size_t kTrials = 40000;
  std::vector<std::uint64_t> masks(kTrials);
  for (double p : {0.1, 0.37, 0.5, 0.75}) {
    Rng rng(1234);
    sample_iid_coloring_words(masks.data(), kTrials, 48, p, rng);
    double greens = 0;
    std::vector<std::size_t> per_element(48, 0);
    for (auto m : masks) {
      greens += std::popcount(m);
      for (int e = 0; e < 48; ++e) per_element[e] += (m >> e) & 1;
    }
    const double n_trials = static_cast<double>(kTrials);
    const double expected = (1.0 - p) * 48.0 * n_trials;
    const double sigma = std::sqrt(48.0 * p * (1.0 - p) * n_trials);
    EXPECT_NEAR(greens, expected, 6.0 * sigma) << "p=" << p;
    // And element marginals individually (no positional bias).
    const double elem_sigma = std::sqrt(p * (1.0 - p) * n_trials);
    for (int e = 0; e < 48; ++e)
      ASSERT_NEAR(static_cast<double>(per_element[e]), (1.0 - p) * n_trials,
                  6.0 * elem_sigma)
          << "p=" << p << " element " << e;
  }
}

TEST(IidSampling, WordSamplerCouplesMonotonicallyAcrossP) {
  // On a shared stream, dyadic thresholds with the same trailing-zero
  // count consume the same draws, and a lane red at the smaller p is red
  // at the larger one: the comonotone coupling that keeps CRN E(p) curves
  // smooth along dyadic grids.
  std::uint64_t lo[32], hi[32];
  Rng rng_lo(5), rng_hi(5);
  sample_iid_coloring_words(lo, 32, 64, 0.25, rng_lo);   // P = 2^51
  sample_iid_coloring_words(hi, 32, 64, 0.75, rng_hi);   // P = 3 * 2^51
  // 0.25 consumes 2 draws/word, 0.75 consumes 2 draws/word: same stream
  // offsets; reds at 0.25 must be a subset of reds at 0.75.
  for (int i = 0; i < 32; ++i)
    ASSERT_EQ(~lo[i] & hi[i], 0ULL) << i;  // reds(lo) subset reds(hi)
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
  // last word; the single-word n <= 64 draw sequence is unchanged (the
  // sampler is trial-major, chunk-major, so one chunk is the old layout).
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
