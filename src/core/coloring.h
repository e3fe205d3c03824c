// Colorings of the universe (Section 2.3): every element is either green
// (live) or red (failed).  Includes the i.i.d. failure model of Section 3
// and the explicit "hard" input distributions used by the Yao lower bounds
// of Section 4 (Thms 4.2, 4.6, 4.8) and the IR_Probe_HQS worst-case family
// P of Lemma 4.11.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/tree_system.h"
#include "util/element_set.h"
#include "util/rng.h"

namespace qps {

enum class Color : std::uint8_t { kRed = 0, kGreen = 1 };

inline Color opposite(Color c) {
  return c == Color::kGreen ? Color::kRed : Color::kGreen;
}

std::string to_string(Color c);

/// An assignment of colors to all n elements.  Value type; immutable except
/// for the assign_greens_mask() engine hook, which refills the coloring in
/// place so the Monte-Carlo hot path can reuse one buffer across trials.
class Coloring {
 public:
  /// All elements red.
  explicit Coloring(std::size_t universe_size);
  /// Greens as given, everything else red.
  Coloring(std::size_t universe_size, ElementSet greens);

  std::size_t universe_size() const { return greens_.universe_size(); }
  Color color(Element e) const {
    return greens_.contains(e) ? Color::kGreen : Color::kRed;
  }
  const ElementSet& greens() const { return greens_; }
  ElementSet reds() const { return greens_.complement(); }
  std::size_t green_count() const { return greens_.count(); }
  std::size_t red_count() const { return universe_size() - green_count(); }

  Coloring with(Element e, Color c) const;

  /// Overwrites the green set from a bitmask without reallocating
  /// (universes of at most 64 elements).  Engine hook for the
  /// zero-allocation trial loop; everything else should treat colorings as
  /// immutable.
  void assign_greens_mask(std::uint64_t mask) { greens_.assign_mask(mask); }

  /// Multi-word variant: overwrites the green set from ceil(n/64) mask
  /// words (the per-trial rows sample_iid_coloring_words produces).  Same
  /// engine hook, any universe size.
  void assign_greens_words(const std::uint64_t* words) {
    greens_.assign_words(words);
  }

  bool operator==(const Coloring& other) const = default;

 private:
  ElementSet greens_;
};

/// Samples a coloring where each element is red independently with
/// probability `p` (the probabilistic model of Section 3).
Coloring sample_iid_coloring(std::size_t universe_size, double p, Rng& rng);

/// Batched word-level i.i.d. sampling: fills `out` with one green mask row
/// of ceil(n/64) words per trial (trial t occupies
/// out[t*stride .. t*stride+stride)).  Each word is built by the bit-sliced
/// Bernoulli construction: p is read as a 53-bit fixed-point threshold
/// P = ceil(p * 2^53) -- exactly the acceptance region of Rng::bernoulli --
/// and element e is red iff its 53-bit uniform U_e < P.  A word takes
/// exactly one draw d from `rng`: the top bit plane of its 64 lanes' U is
/// ~d, and the lower planes are successive splitmix64 steps keyed by d,
/// compared from the top down and only until every lane is settled (about
/// log2(lanes) + 1.3 planes; at p = 1/2 one plane, the reds being d
/// itself).  Consequences:
///   * the marginal of every element is bit-exactly Bernoulli(p), while
///     the joint sequence differs from the per-element samplers;
///     estimates built on it are statistically equivalent, not
///     stream-identical;
///   * U depends on neither p nor the data, so for 0 < p < p' < 1 on the
///     same rng state every red lane at p is red at p' (comonotone
///     coupling across the whole p grid);
///   * for 0 < p < 1 the rng advances exactly count * ceil(n/64) draws
///     (none at p = 0 or 1), so one call equals any split into
///     consecutive calls;
///   * the output is a deterministic function of (p, rng state), so engine
///     results stay bit-identical across thread counts.
void sample_iid_coloring_words(std::uint64_t* out, std::size_t count,
                               std::size_t universe_size, double p, Rng& rng);

/// The engine's batch sampler (since result stream v4): the colorings of
/// `trial_count` trials in lane-major layout.  With G = ceil(trial_count /
/// 64) groups of 64 trials, word g*n + e holds element e's colors for
/// trials 64g .. 64g+63 (bit t = trial 64g + t; green = 1), so a group is
/// exactly the per-element lane words the batch kernels read.  Defined as
/// one sample_iid_coloring_words(out, G*n, 64, p, rng) call -- each word
/// is 64 i.i.d. Bernoulli lanes, so every property listed above carries
/// over (bit-exact marginals, comonotone in p, G*n draws for 0 < p < 1).
/// Lanes beyond trial_count in the last group are drawn and left as
/// drawn; consumers ignore them.  `out` holds G*n words.
void sample_iid_lane_words(std::uint64_t* out, std::size_t trial_count,
                           std::size_t universe_size, double p, Rng& rng);

/// Transposes up to 64 per-trial green bitmasks (the layout
/// sample_iid_coloring_words produces: word t = trial t, bit e = element e)
/// into the bit-sliced per-element layout of the batch trial kernel
/// (core/engine/batch_kernel.h): `element_words[e]` holds element e's color
/// across the trials, bit t of it = bit e of `trial_masks[t]`.  Lanes
/// beyond `trial_count` come out zero.  One 64x64 bit-matrix transpose via
/// masked delta swaps -- no per-bit loops.
void transpose_coloring_words(const std::uint64_t* trial_masks,
                              std::size_t trial_count,
                              std::uint64_t* element_words,
                              std::size_t universe_size);

/// Multi-word, multi-lane transpose for the SIMD batch engine
/// (core/engine/simd.h), used where a block is bound to per-trial rows --
/// the permuting strategies' permuted rows, and BatchTrialBlock::load():
/// `trial_masks` holds `trial_count` rows of stride = ceil(universe_size/64)
/// words (the sample_iid_coloring_words layout, any n), and the output is
/// the lane-word matrix
/// `element_words[e*lane_words + k]` = colors of element e across trials
/// [64k, 64k+64).  Requires trial_count <= 64*lane_words; lanes beyond
/// trial_count come out zero.  Tiled 64x64 bit-matrix transposes, one tile
/// per (lane word, element chunk) pair, four lane words' tiles in lockstep.
void transpose_coloring_words_strided(const std::uint64_t* trial_masks,
                                      std::size_t trial_count,
                                      std::size_t universe_size,
                                      std::size_t lane_words,
                                      std::uint64_t* element_words);

/// The reverse of transpose_coloring_words_strided: lane words back into
/// per-trial rows of stride = ceil(universe_size/64) words.  The lane word
/// of element e for trials [64k, 64k+64) is read from
/// lane_words[e * element_stride + k * group_stride] -- (1, n) is the
/// sample_iid_lane_words layout, (W, 1) the batch kernel's element rows.
/// Writes rows 0 .. trial_count-1 only; bits at and beyond universe_size
/// in a row's last word come out zero.  Same lockstep 64x64 tiles as the
/// forward transpose.
void transpose_lane_words_to_rows(const std::uint64_t* lane_words,
                                  std::size_t trial_count,
                                  std::size_t universe_size,
                                  std::size_t element_stride,
                                  std::size_t group_stride,
                                  std::uint64_t* trial_masks);

/// A finite distribution over colorings with explicit weights; weights are
/// normalized on construction.
class ColoringDistribution {
 public:
  ColoringDistribution(std::vector<Coloring> support,
                       std::vector<double> weights);

  /// Uniform over the given support.
  static ColoringDistribution uniform(std::vector<Coloring> support);

  std::size_t size() const { return support_.size(); }
  const Coloring& coloring(std::size_t i) const { return support_[i]; }
  double weight(std::size_t i) const { return weights_[i]; }

  const Coloring& sample(Rng& rng) const;

 private:
  std::vector<Coloring> support_;
  std::vector<double> weights_;
  std::vector<double> cumulative_;
};

/// Thm 4.2's hard distribution for Maj on odd n: uniform over all colorings
/// with exactly (n+1)/2 red elements.
ColoringDistribution maj_hard_distribution(std::size_t universe_size);

/// Thm 4.6's hard distribution for a crumbling wall: exactly one green
/// element in each row, uniformly and independently per row.
ColoringDistribution cw_hard_distribution(const CrumblingWall& wall);

/// Thm 4.8's hard distribution for the Tree system: all internal levels
/// >= 2 green; in each height-1 subtree exactly two of the three nodes are
/// red, uniformly and independently per subtree.  The support has size
/// 3^{(n+1)/4}, so materialization is limited to small trees.
ColoringDistribution tree_hard_distribution(const TreeSystem& tree);

/// Samples one coloring from tree_hard_distribution without materializing
/// the (exponentially large) support; works for any height >= 1.
Coloring sample_tree_hard_coloring(const TreeSystem& tree, Rng& rng);

/// Lemma 4.11's worst-case input family P for the HQS algorithms: at every
/// gate exactly two of the three children carry the gate's value.  The
/// returned coloring gives the root value `root_value`, assigning the
/// minority child the pattern that maximizes the evaluation cost.
Coloring hqs_worst_case_coloring(const HQSystem& hqs, Color root_value);

}  // namespace qps
