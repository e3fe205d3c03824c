#include "core/coloring.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/require.h"

namespace qps {

std::string to_string(Color c) {
  return c == Color::kGreen ? "green" : "red";
}

Coloring::Coloring(std::size_t universe_size) : greens_(universe_size) {}

Coloring::Coloring(std::size_t universe_size, ElementSet greens)
    : greens_(std::move(greens)) {
  QPS_REQUIRE(greens_.universe_size() == universe_size,
              "green set over the wrong universe");
}

Coloring Coloring::with(Element e, Color c) const {
  ElementSet greens = greens_;
  if (c == Color::kGreen)
    greens.insert(e);
  else
    greens.erase(e);
  return Coloring(universe_size(), std::move(greens));
}

Coloring sample_iid_coloring(std::size_t universe_size, double p, Rng& rng) {
  QPS_REQUIRE(p >= 0.0 && p <= 1.0, "probability outside [0,1]");
  ElementSet greens(universe_size);
  for (Element e = 0; e < universe_size; ++e)
    if (!rng.bernoulli(p)) greens.insert(e);
  return Coloring(universe_size, std::move(greens));
}

namespace {

// Words sampled in lockstep: independent splitmix64 chains overlap in the
// pipeline, and the loop exit is taken once per group, not once per word.
constexpr std::size_t kGroup = 4;

// Bit-sliced comparison red_e = [U_e < P] for G consecutive mask words,
// MSB first.  Each word takes exactly one draw d: plane 52 of its lanes'
// 53-bit uniforms U is ~d, and planes 51, 50, ... are successive
// splitmix64 steps keyed by d, generated only while needed.  A lane
// settles at the first plane where its U bit differs from P's bit (red
// iff P's bit is the 1); lanes still tied after P's lowest set bit have
// U >= P and stay green.  The walk stops once no lane is undecided, about
// log2(lanes) + 1.3 planes per word on average; planes walked past a
// word's last undecided lane leave it unchanged, so a word's mask does not
// depend on its group.  U depends on neither p nor the data, so reds at p
// are a subset of reds at any p' > p on the same stream.
template <std::size_t G, typename NextLanes>
void sample_word_group(std::uint64_t* out, std::uint64_t threshold,
                       int lowest, NextLanes& next_lanes, Rng& rng) {
  std::uint64_t key[G], u[G], lanes[G], undecided[G], reds[G];
  for (std::size_t g = 0; g < G; ++g) {
    key[g] = rng.next_u64();
    u[g] = ~key[g];
    lanes[g] = next_lanes();
    undecided[g] = lanes[g];
    reds[g] = 0;
  }
  for (int b = 52;; --b) {
    // All ones where P's bit b is set: a 0 in U settles red there, and a
    // 1 in U settles green where P's bit is clear.
    const std::uint64_t p_bit = 0 - ((threshold >> b) & 1ULL);
    std::uint64_t live = 0;
    for (std::size_t g = 0; g < G; ++g) {
      reds[g] |= undecided[g] & ~u[g] & p_bit;
      undecided[g] &= ~(u[g] ^ p_bit);
      live |= undecided[g];
    }
    if (b == lowest || live == 0) break;
    for (std::size_t g = 0; g < G; ++g) u[g] = splitmix64(key[g]);
  }
  for (std::size_t g = 0; g < G; ++g) out[g] = ~reds[g] & lanes[g];
}

}  // namespace

void sample_iid_coloring_words(std::uint64_t* out, std::size_t count,
                               std::size_t universe_size, double p, Rng& rng) {
  QPS_REQUIRE(universe_size >= 1, "word sampling needs a nonempty universe");
  QPS_REQUIRE(p >= 0.0 && p <= 1.0, "probability outside [0,1]");
  const std::size_t stride = (universe_size + 63) / 64;
  const std::size_t tail_bits = universe_size - (stride - 1) * 64;
  const std::uint64_t tail_mask =
      tail_bits == 64 ? ~0ULL : (1ULL << tail_bits) - 1;
  // bernoulli(p) accepts iff uniform01() < p, i.e. iff the 53-bit uniform
  // U satisfies U < ceil(p * 2^53); the product is exact (power-of-two
  // scale), so P below reproduces that acceptance region bit-exactly.
  const auto threshold =
      static_cast<std::uint64_t>(std::ceil(p * 9007199254740992.0));  // 2^53
  if (threshold == 0) {  // p == 0: nothing fails, and bernoulli draws nothing
    for (std::size_t i = 0; i < count * stride; ++i)
      out[i] = (i % stride) + 1 == stride ? tail_mask : ~0ULL;
    return;
  }
  if (threshold >= (1ULL << 53)) {  // p == 1: everything fails
    for (std::size_t i = 0; i < count * stride; ++i) out[i] = 0;
    return;
  }
  // Words are drawn in order, trial-major then chunk-major; kGroup of them
  // walk their planes in lockstep (see sample_word_group).
  const int lowest = std::countr_zero(threshold);
  const std::size_t words = count * stride;
  std::size_t chunk = 0;  // chunk index of the next word within its row
  const auto next_lanes = [&] {
    const bool last = chunk + 1 == stride;
    chunk = last ? 0 : chunk + 1;
    return last ? tail_mask : ~0ULL;
  };
  std::size_t w = 0;
  for (; w + kGroup <= words; w += kGroup)
    sample_word_group<kGroup>(out + w, threshold, lowest, next_lanes, rng);
  for (; w < words; ++w)
    sample_word_group<1>(out + w, threshold, lowest, next_lanes, rng);
}

void sample_iid_lane_words(std::uint64_t* out, std::size_t trial_count,
                           std::size_t universe_size, double p, Rng& rng) {
  QPS_REQUIRE(universe_size >= 1, "lane sampling needs a nonempty universe");
  const std::size_t groups = (trial_count + 63) / 64;
  sample_iid_coloring_words(out, groups * universe_size, 64, p, rng);
}

namespace {

// Hacker's-Delight 64x64 in-place bit-matrix transpose by masked delta
// swaps, applied to G tiles in lockstep (tile g is column g of x, so each
// swap step is G independent word operations the compiler vectorizes).
// The classic algorithm transposes under the MSB-left convention, i.e.
// with LSB indexing it maps (row r, bit b) to (63-b, 63-r); callers load
// and store with reversed row indices to get the plain (r, b) -> (b, r).
template <std::size_t G>
void transpose_64x64_tiles(std::uint64_t (&x)[64][G]) {
  for (std::uint64_t j = 32, m = 0x00000000FFFFFFFFULL; j != 0;
       j >>= 1, m ^= m << j) {
    for (std::uint64_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      for (std::size_t g = 0; g < G; ++g) {
        const std::uint64_t t = (x[k][g] ^ (x[k + j][g] >> j)) & m;
        x[k][g] ^= t;
        x[k + j][g] ^= t << j;
      }
    }
  }
}

/// Lane words [k0, k0 + G) of element chunk c: tile (k, c) holds trials
/// [64k, 64k+64) x elements [64c, 64c+64).
template <std::size_t G>
void transpose_lane_words(const std::uint64_t* trial_masks,
                          std::size_t trial_count, std::size_t universe_size,
                          std::size_t lane_words, std::size_t k0,
                          std::size_t c, std::uint64_t* element_words) {
  const std::size_t stride = (universe_size + 63) / 64;
  std::uint64_t x[64][G];
  for (std::size_t t = 0; t < 64; ++t) {
    for (std::size_t g = 0; g < G; ++g) {
      const std::size_t trial = 64 * (k0 + g) + t;
      x[63 - t][g] = trial < trial_count ? trial_masks[trial * stride + c] : 0;
    }
  }
  transpose_64x64_tiles(x);
  const std::size_t chunk_elems =
      universe_size - 64 * c < 64 ? universe_size - 64 * c : 64;
  for (std::size_t e = 0; e < chunk_elems; ++e)
    for (std::size_t g = 0; g < G; ++g)
      element_words[(64 * c + e) * lane_words + k0 + g] = x[63 - e][g];
}

/// The reverse tiles: lane words of groups [k0, k0 + G) and element chunk
/// c in, rows of trials [64k0, 64(k0+G)) x chunk c out.
template <std::size_t G>
void lane_words_to_rows(const std::uint64_t* lane_words,
                        std::size_t trial_count, std::size_t universe_size,
                        std::size_t element_stride, std::size_t group_stride,
                        std::size_t k0, std::size_t c,
                        std::uint64_t* trial_masks) {
  const std::size_t stride = (universe_size + 63) / 64;
  const std::size_t chunk_elems =
      universe_size - 64 * c < 64 ? universe_size - 64 * c : 64;
  std::uint64_t x[64][G];
  for (std::size_t e = 0; e < 64; ++e) {
    for (std::size_t g = 0; g < G; ++g) {
      x[63 - e][g] = e < chunk_elems
                         ? lane_words[(64 * c + e) * element_stride +
                                      (k0 + g) * group_stride]
                         : 0;
    }
  }
  transpose_64x64_tiles(x);
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t first = 64 * (k0 + g);
    const std::size_t rows =
        trial_count - first < 64 ? trial_count - first : 64;
    for (std::size_t t = 0; t < rows; ++t)
      trial_masks[(first + t) * stride + c] = x[63 - t][g];
  }
}

}  // namespace

void transpose_coloring_words(const std::uint64_t* trial_masks,
                              std::size_t trial_count,
                              std::uint64_t* element_words,
                              std::size_t universe_size) {
  QPS_REQUIRE(universe_size >= 1 && universe_size <= 64,
              "transpose needs a universe of 1..64");
  QPS_REQUIRE(trial_count <= 64, "at most 64 trials per transpose");
  transpose_lane_words<1>(trial_masks, trial_count, universe_size, 1, 0, 0,
                          element_words);
}

void transpose_coloring_words_strided(const std::uint64_t* trial_masks,
                                      std::size_t trial_count,
                                      std::size_t universe_size,
                                      std::size_t lane_words,
                                      std::uint64_t* element_words) {
  QPS_REQUIRE(universe_size >= 1, "transpose needs a nonempty universe");
  QPS_REQUIRE(lane_words >= 1, "transpose needs at least one lane word");
  QPS_REQUIRE(trial_count <= 64 * lane_words,
              "more trials than the lane words can hold");
  const std::size_t stride = (universe_size + 63) / 64;
  for (std::size_t c = 0; c < stride; ++c) {
    std::size_t k = 0;
    for (; k + 4 <= lane_words; k += 4)
      transpose_lane_words<4>(trial_masks, trial_count, universe_size,
                              lane_words, k, c, element_words);
    for (; k < lane_words; ++k)
      transpose_lane_words<1>(trial_masks, trial_count, universe_size,
                              lane_words, k, c, element_words);
  }
}

void transpose_lane_words_to_rows(const std::uint64_t* lane_words,
                                  std::size_t trial_count,
                                  std::size_t universe_size,
                                  std::size_t element_stride,
                                  std::size_t group_stride,
                                  std::uint64_t* trial_masks) {
  QPS_REQUIRE(universe_size >= 1, "transpose needs a nonempty universe");
  const std::size_t stride = (universe_size + 63) / 64;
  const std::size_t groups = (trial_count + 63) / 64;
  for (std::size_t c = 0; c < stride; ++c) {
    std::size_t k = 0;
    for (; k + 4 <= groups; k += 4)
      lane_words_to_rows<4>(lane_words, trial_count, universe_size,
                            element_stride, group_stride, k, c, trial_masks);
    for (; k < groups; ++k)
      lane_words_to_rows<1>(lane_words, trial_count, universe_size,
                            element_stride, group_stride, k, c, trial_masks);
  }
}

ColoringDistribution::ColoringDistribution(std::vector<Coloring> support,
                                           std::vector<double> weights)
    : support_(std::move(support)), weights_(std::move(weights)) {
  QPS_REQUIRE(!support_.empty(), "distribution needs a nonempty support");
  QPS_REQUIRE(support_.size() == weights_.size(),
              "support/weight size mismatch");
  double total = 0.0;
  for (double w : weights_) {
    QPS_REQUIRE(w >= 0.0, "weights must be nonnegative");
    total += w;
  }
  QPS_REQUIRE(total > 0.0, "weights must not all be zero");
  cumulative_.reserve(weights_.size());
  double acc = 0.0;
  for (auto& w : weights_) {
    w /= total;
    acc += w;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;  // guard against rounding
}

ColoringDistribution ColoringDistribution::uniform(
    std::vector<Coloring> support) {
  const std::vector<double> weights(support.size(), 1.0);
  return ColoringDistribution(std::move(support), weights);
}

const Coloring& ColoringDistribution::sample(Rng& rng) const {
  const double u = rng.uniform01();
  const auto it =
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  const std::size_t idx =
      std::min(static_cast<std::size_t>(it - cumulative_.begin()),
               support_.size() - 1);
  return support_[idx];
}

ColoringDistribution maj_hard_distribution(std::size_t universe_size) {
  QPS_REQUIRE(universe_size % 2 == 1, "Maj needs odd n");
  QPS_REQUIRE(universe_size <= 25, "hard distribution enumeration too large");
  const std::size_t reds_wanted = (universe_size + 1) / 2;
  std::vector<Coloring> support;
  const std::uint64_t limit = 1ULL << universe_size;
  // Iterate masks of greens with exactly n - (n+1)/2 greens (Gosper's hack).
  const std::size_t greens_wanted = universe_size - reds_wanted;
  if (greens_wanted == 0) {
    support.emplace_back(universe_size);
    return ColoringDistribution::uniform(std::move(support));
  }
  std::uint64_t mask = (1ULL << greens_wanted) - 1;
  while (mask < limit) {
    support.emplace_back(universe_size,
                         ElementSet::from_mask(universe_size, mask));
    const std::uint64_t c = mask & -mask;
    const std::uint64_t r = mask + c;
    mask = (((r ^ mask) >> 2) / c) | r;
  }
  return ColoringDistribution::uniform(std::move(support));
}

namespace {

void cw_hard_recurse(const CrumblingWall& wall, std::size_t row,
                     ElementSet& greens, std::vector<Coloring>& out) {
  if (row == wall.row_count()) {
    out.emplace_back(wall.universe_size(), greens);
    return;
  }
  for (Element e = wall.row_begin(row); e < wall.row_end(row); ++e) {
    greens.insert(e);
    cw_hard_recurse(wall, row + 1, greens, out);
    greens.erase(e);
  }
}

}  // namespace

ColoringDistribution cw_hard_distribution(const CrumblingWall& wall) {
  double support_size = 1;
  for (std::size_t r = 0; r < wall.row_count(); ++r)
    support_size *= static_cast<double>(wall.row_width(r));
  QPS_REQUIRE(support_size <= 200000.0, "hard distribution support too large");
  std::vector<Coloring> support;
  ElementSet greens(wall.universe_size());
  cw_hard_recurse(wall, 0, greens, support);
  return ColoringDistribution::uniform(std::move(support));
}

ColoringDistribution tree_hard_distribution(const TreeSystem& tree) {
  const std::size_t h = tree.height();
  QPS_REQUIRE(h >= 1, "the Tree hard distribution needs height >= 1");
  const std::size_t n = tree.universe_size();
  // Height-1 subtree roots are the nodes at depth h-1 (heap indices
  // [2^(h-1) - 1, 2^h - 2]); everything above them is green.
  const std::size_t first_parent = (std::size_t{1} << (h - 1)) - 1;
  const std::size_t parent_count = std::size_t{1} << (h - 1);
  QPS_REQUIRE(parent_count <= 10,
              "hard distribution support 3^(2^(h-1)) too large");
  ElementSet upper_greens(n);
  for (Element v = 0; v < first_parent; ++v) upper_greens.insert(v);

  std::vector<Coloring> support;
  std::vector<std::size_t> choice(parent_count, 0);
  while (true) {
    ElementSet greens = upper_greens;
    for (std::size_t i = 0; i < parent_count; ++i) {
      const auto parent = static_cast<Element>(first_parent + i);
      // choice[i] selects which of {parent, left, right} stays green.
      const Element members[3] = {parent, TreeSystem::left_child(parent),
                                  TreeSystem::right_child(parent)};
      greens.insert(members[choice[i]]);
    }
    support.emplace_back(n, std::move(greens));
    // Advance the mixed-radix counter over per-subtree choices.
    std::size_t i = 0;
    while (i < parent_count && ++choice[i] == 3) choice[i++] = 0;
    if (i == parent_count) break;
  }
  return ColoringDistribution::uniform(std::move(support));
}

Coloring sample_tree_hard_coloring(const TreeSystem& tree, Rng& rng) {
  const std::size_t h = tree.height();
  QPS_REQUIRE(h >= 1, "the Tree hard distribution needs height >= 1");
  const std::size_t n = tree.universe_size();
  const std::size_t first_parent = (std::size_t{1} << (h - 1)) - 1;
  const std::size_t parent_count = std::size_t{1} << (h - 1);
  ElementSet greens(n);
  for (Element v = 0; v < first_parent; ++v) greens.insert(v);
  for (std::size_t i = 0; i < parent_count; ++i) {
    const auto parent = static_cast<Element>(first_parent + i);
    const Element members[3] = {parent, TreeSystem::left_child(parent),
                                TreeSystem::right_child(parent)};
    greens.insert(members[rng.below(3)]);
  }
  return Coloring(n, std::move(greens));
}

namespace {

void hqs_worst_recurse(std::size_t level, std::size_t index, bool value,
                       ElementSet& greens) {
  if (level == 0) {
    if (value) greens.insert(static_cast<Element>(index));
    return;
  }
  // Exactly two children carry the gate's value (the family P of
  // Lemma 4.11); the minority child recursively gets the complementary
  // worst-case pattern.
  hqs_worst_recurse(level - 1, index * 3 + 0, value, greens);
  hqs_worst_recurse(level - 1, index * 3 + 1, value, greens);
  hqs_worst_recurse(level - 1, index * 3 + 2, !value, greens);
}

}  // namespace

Coloring hqs_worst_case_coloring(const HQSystem& hqs, Color root_value) {
  ElementSet greens(hqs.universe_size());
  hqs_worst_recurse(hqs.height(), 0, root_value == Color::kGreen, greens);
  return Coloring(hqs.universe_size(), std::move(greens));
}

}  // namespace qps
