// Bit-sliced batch trial kernel: 64*W Monte-Carlo trials per block.
//
// The scalar hot path (trial_workspace.h) runs one trial at a time; every
// probe is a branch on one trial's color.  A batch block instead runs a
// whole super-block of trials in lock-step, one bit-lane per trial and
// W = SimdKernels::width lane words side by side (core/engine/simd.h):
//
//  * BatchTrialBlock::load_lanes() copies up to W groups of the engine's
//    lane-major coloring words (sample_iid_lane_words: one word per
//    element per 64 trials) straight into one lane-word row PER ELEMENT,
//    so a probe step reads all lanes' answers in W word loads and no scan
//    transposes anything; load() transposes per-trial rows (ceil(n/64)
//    words per trial, any universe size) for callers that hold rows;
//  * a randomized strategy's run_batch() override (core/strategy.h) draws
//    its choices lane-major, 64 trials per word (stream v5, below):
//    plan masks straight into the layout its kernel reads, or a bit-sliced
//    Fisher-Yates shuffle applied to the element rows in place
//    (shuffle_rows), and then calls one of the block's width kernels,
//    which walk the probe structure once carrying an active-lane matrix --
//    divergence between trials becomes mask arithmetic, never a per-trial
//    branch;
//  * probe accounting is bit-sliced too: per-lane counters live as
//    bit_width(n) bit planes of W words each, charged by ripple-carry adds
//    inside the kernels, and per-lane stop detection is a plane-fold
//    equality against a constant;
//  * the reduction never unpacks a lane: fold_probe_planes() turns the
//    planes straight into exact integer moments (CountMoments, util/stats.h)
//    with popcounts -- sum, sum of squares, min and max of the counts.
//
// Stream v5 lane draws.  A randomized strategy's choices for one 64-lane
// group are bit planes drawn by draw_lane_below(): a value uniform in
// [0, bound) per lane from rounds of bit_width(bound - 1) words, lanes
// that drew bound or more taking the next round's bits until all 64
// accept.  Groups are drawn in order, each group's lanes all at once, so
// the lanes beyond a block's trial count are drawn and ignored and a
// trial's choices never depend on how many trials follow it.  The scalar
// path (ProbeStrategy::run_lane) reads one lane of the same words.
//
// Contract: for every lane t < trial_count(), the probe count recovered by
// probe_count(t) must be bit-identical to what the scalar
// ProbeStrategy::run_lane() (randomized strategies, on lane t's drawn
// choices) or run_with() (deterministic ones) path reports for trial t's
// coloring (tests/core/test_batch_kernel.cpp and test_simd.cpp enforce
// this per strategy x family x lane width), and fold_probe_counts() must
// equal those counts fed one by one through CountMoments::add.  The engine
// dispatches to this kernel whenever the strategy supports_batch() and
// witness validation is off (parallel_estimator.h), and always runs the
// production W = 4 table (core/engine/simd.h).
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/coloring.h"
#include "core/engine/simd.h"
#include "util/element_set.h"
#include "util/rng.h"

namespace qps {

class CountMoments;

/// Folds the probe counts of the lanes set in `active` into `out` without
/// gathering a single lane.  `planes` holds `plane_count` planes of `width`
/// lane words each (plane b, word k at planes[b * width + k]: bit b of the
/// counts of lanes 64k..64k+63); with M_b = P_b & A,
///   sum    = sum_b 2^b popcount(M_b),
///   sum_sq = sum_b 4^b popcount(M_b) + sum_{b<c} 2^(b+c+1) popcount(M_b & M_c),
/// and max / min come from an MSB-down descent over a candidate-lane mask.
/// Bits outside `active` are ignored.  Takes at most 29 planes (counts
/// below 2^29); more throw std::invalid_argument.
void fold_probe_planes(const std::uint64_t* planes, std::size_t plane_count,
                       const std::uint64_t* active, std::size_t width,
                       CountMoments& out);

// ---- Stream v5 lane draws (see the header comment) -----------------------

/// Draws one value uniform in [0, bound) for each of 64 lanes, as
/// bit_width(bound - 1) bit planes written to `planes` (plane 0 = the
/// least significant bit); returns the plane count.  Each round draws one
/// word per plane, in plane order, and only the lanes still at or above
/// `bound` take its bits, until every lane accepts; a power-of-two bound
/// needs one round.  Requires 2 <= bound <= 2^32.
inline std::size_t draw_lane_below(Rng& rng, std::uint64_t bound,
                                   std::uint64_t* planes) {
  QPS_REQUIRE(bound >= 2 && bound <= (std::uint64_t{1} << 32),
              "lane draws need a bound in [2, 2^32]");
  const auto bits = static_cast<std::size_t>(std::bit_width(bound - 1));
  for (std::size_t b = 0; b < bits; ++b) planes[b] = rng.next_u64();
  if ((bound & (bound - 1)) == 0) return bits;
  for (;;) {
    // Lanes below `bound`: an MSB-first comparison with the constant,
    // branch-free (bit_b is all ones where bound has bit b).
    std::uint64_t below = 0;
    std::uint64_t equal = ~std::uint64_t{0};
    for (std::size_t b = bits; b-- > 0;) {
      const std::uint64_t bit_b = 0 - ((bound >> b) & 1U);
      below |= equal & ~planes[b] & bit_b;
      equal &= ~(planes[b] ^ bit_b);
    }
    const std::uint64_t pending = ~below;
    if (pending == 0) return bits;
    for (std::size_t b = 0; b < bits; ++b)
      planes[b] ^= (planes[b] ^ rng.next_u64()) & pending;
  }
}

/// Lane `lane`'s value in `count` bit planes.
inline std::uint32_t lane_value(const std::uint64_t* planes, std::size_t count,
                                std::size_t lane) {
  std::uint32_t value = 0;
  for (std::size_t b = 0; b < count; ++b)
    value |= static_cast<std::uint32_t>((planes[b] >> lane) & 1ULL) << b;
  return value;
}

/// Words one group's Fisher-Yates shuffle of `size` items occupies:
/// sum over i = size .. 2 of bit_width(i - 1).
std::size_t lane_shuffle_words(std::size_t size);

/// Draws one group's Fisher-Yates indices for a shuffle of `size` items:
/// for i = size .. 2, J_i uniform in [0, i) per lane (draw_lane_below),
/// its planes appended in that order.  Returns the words written,
/// lane_shuffle_words(size).
std::size_t draw_lane_shuffle(Rng& rng, std::size_t size, std::uint64_t* out);

/// The scalar reading of a drawn shuffle: for i = size .. 2, swaps data[i-1]
/// with data[J_i] for lane `lane`'s J_i -- Rng::shuffle_span with the
/// lane's indices in place of below(i).  Returns the words consumed.
template <typename T>
std::size_t shuffle_from_lane(const std::uint64_t* shuffle, std::size_t lane,
                              T* data, std::size_t size) {
  std::size_t used = 0;
  for (std::size_t i = size; i > 1; --i) {
    const auto bits = static_cast<std::size_t>(std::bit_width(i - 1));
    std::swap(data[i - 1], data[lane_value(shuffle + used, bits, lane)]);
    used += bits;
  }
  return used;
}

/// One super-block of up to 64*width trials in bit-sliced (per-element)
/// coloring layout, plus the bit-sliced probe accounting and the buffers
/// batch strategies draw their lane choices into.  All storage is sized
/// once by configure(); load()/load_lanes()/view()/shuffle_rows() and
/// run_batch never allocate, so a block can live inside a TrialWorkspace
/// and be reloaded between super-blocks without touching the heap.
class BatchTrialBlock {
 public:
  /// Binds the block to a kernel table and a universe size, sizing all
  /// storage.  No-op when already configured identically; invalidates any
  /// loaded trials otherwise.
  void configure(const SimdKernels& kernels, std::size_t universe_size) {
    QPS_REQUIRE(universe_size >= 1, "a batch block needs a nonempty universe");
    if (kernels_ == &kernels && n_ == universe_size) return;
    kernels_ = &kernels;
    n_ = universe_size;
    planes_ = std::bit_width(universe_size);
    const std::size_t w = kernels.width;
    element_greens_.assign(n_ * w, 0);
    probe_planes_.assign(planes_ * w, 0);
    tally_planes_.assign(planes_ * w, 0);
    active_.assign(w, 0);
    // R_Probe_HQS's 6 masks per gate, (n-1)/2 gates, bound R_Probe_Tree's
    // 3 per internal node; a shuffle of n items bounds every row shuffle.
    plan_masks_.assign(3 * n_ * w, 0);
    lane_choices_.assign(lane_shuffle_words(n_), 0);
    const auto index_bits = static_cast<std::size_t>(std::bit_width(n_ - 1));
    decode_.assign(std::size_t{2} << ((index_bits + 1) / 2), 0);
    trial_count_ = 0;
  }

  /// Binds `trial_count` (1 .. lane_capacity()) per-trial green-mask rows
  /// of ceil(n/64) words each: transposes them into the element rows
  /// (lanes beyond trial_count cleared) and resets the probe tallies.
  void load(const std::uint64_t* trial_green_masks, std::size_t trial_count) {
    begin_trials(trial_count);
    transpose_coloring_words_strided(trial_green_masks, trial_count, n_,
                                     width(), element_greens_.data());
  }

  /// Binds `trial_count` (1 .. lane_capacity()) trials given as lane words
  /// in the sample_iid_lane_words layout: `group_words` points at the
  /// block's first group, and word g*n + e holds element e's colors for
  /// the block's trials [64g, 64g+64).  The ceil(trial_count/64) groups
  /// are copied into the element rows (lanes beyond trial_count cleared),
  /// so nothing is transposed.
  void load_lanes(const std::uint64_t* group_words, std::size_t trial_count) {
    begin_trials(trial_count);
    const std::size_t w = width();
    for (std::size_t e = 0; e < n_; ++e)
      for (std::size_t k = 0; k < w; ++k)
        element_greens_[e * w + k] =
            active_[k] != 0 ? group_words[k * n_ + e] & active_[k] : 0;
  }

  /// The kernels' window into the loaded block.
  BlockView view() {
    QPS_REQUIRE(trial_count_ >= 1, "load() trials before view()");
    return BlockView{element_greens_.data(), probe_planes_.data(),
                     tally_planes_.data(),   active_.data(),
                     n_,                     planes_};
  }

  std::size_t universe_size() const { return n_; }
  std::size_t trial_count() const { return trial_count_; }
  /// 64-lane groups holding the loaded trials: ceil(trial_count() / 64).
  std::size_t group_count() const { return (trial_count_ + 63) / 64; }
  /// Lane words per element row (the configured table's W).
  std::size_t width() const { return kernels_ == nullptr ? 0 : kernels_->width; }
  /// Trials per super-block: 64 * width().
  std::size_t lane_capacity() const { return 64 * width(); }
  const SimdKernels& kernels() const {
    QPS_REQUIRE(kernels_ != nullptr, "configure() the block first");
    return *kernels_;
  }

  /// Lane-mask buffer of 3 * universe_size() * width() words for drawn
  /// per-lane structure masks in a kernel's layout (R_Probe_Tree plans,
  /// R_Probe_HQS orders); sized by configure(), contents unspecified
  /// until the strategy writes them.
  std::uint64_t* plan_masks() { return plan_masks_.data(); }

  /// Buffer for one group's drawn choices, lane_shuffle_words(
  /// universe_size()) words; sized by configure().
  std::uint64_t* lane_choices() { return lane_choices_.data(); }

  /// Applies one group's drawn shuffle (draw_lane_shuffle over `size`
  /// items) to lane word `group` of the element rows [first, first + size),
  /// bit-sliced and in place: for i = size .. 2, row first+i-1 trades
  /// places with row first+J_i in every lane, the lanes of each target row
  /// picked by a one-hot mask decoded from J_i's planes in two levels (a
  /// low-bits and a high-bits table, each sized by the bit width), so a
  /// step costs O(i) word operations.  Afterwards row first+j holds, in
  /// each lane, the color of the item the lane's shuffle put at position j.
  /// Returns the words of `shuffle` consumed.
  std::size_t shuffle_rows(std::size_t group, const std::uint64_t* shuffle,
                           std::size_t first, std::size_t size);

  /// Folds every loaded trial's probe count into `out` (fold_probe_planes
  /// over the probe planes and the active mask); call after a kernel ran.
  void fold_probe_counts(CountMoments& out) const {
    fold_probe_planes(probe_planes_.data(), planes_, active_.data(), width(),
                      out);
  }

  /// Trial t's probe count, gathered from the probe planes; defined for
  /// t < trial_count() after a kernel ran.  The engine never gathers (it
  /// folds); this is the per-lane view tests and diagnostics compare with.
  std::uint32_t probe_count(std::size_t lane) const {
    const std::size_t w = width();
    std::uint32_t value = 0;
    for (std::size_t b = 0; b < planes_; ++b)
      value |= static_cast<std::uint32_t>(
                   (probe_planes_[b * w + lane / 64] >> (lane % 64)) & 1ULL)
               << b;
    return value;
  }

 private:
  /// Shared head of load()/load_lanes(): checks the count, sets the active
  /// lanes and clears the probe tallies.
  void begin_trials(std::size_t trial_count) {
    QPS_REQUIRE(kernels_ != nullptr, "configure() the block before load()");
    QPS_REQUIRE(trial_count >= 1 && trial_count <= lane_capacity(),
                "a batch block holds 1..64*width trials");
    trial_count_ = trial_count;
    for (auto& p : probe_planes_) p = 0;
    for (std::size_t k = 0; k < active_.size(); ++k) {
      const std::size_t low = 64 * k;
      if (trial_count >= low + 64)
        active_[k] = ~0ULL;
      else if (trial_count > low)
        active_[k] = (1ULL << (trial_count - low)) - 1;
      else
        active_[k] = 0;
    }
  }

  const SimdKernels* kernels_ = nullptr;
  std::size_t n_ = 0;
  std::size_t planes_ = 0;
  std::size_t trial_count_ = 0;
  std::vector<std::uint64_t> element_greens_;  // n * W lane words
  std::vector<std::uint64_t> probe_planes_;    // planes * W
  std::vector<std::uint64_t> tally_planes_;    // planes * W kernel scratch
  std::vector<std::uint64_t> active_;          // W
  std::vector<std::uint64_t> plan_masks_;      // 3 * n * W
  std::vector<std::uint64_t> lane_choices_;    // lane_shuffle_words(n)
  std::vector<std::uint64_t> decode_;          // shuffle_rows' two tables
};

class ProbeStrategy;

/// Drives `trial_count` trials through `strategy`'s bit-sliced kernel in
/// super-blocks of block.lane_capacity() lanes: load_lanes, run_batch,
/// then fold the super-block's probe counts into `out`.  `lane_words` is
/// a batch in the sample_iid_lane_words layout (ceil(trial_count/64)
/// groups of universe_size words).  The moments are exact integers, so
/// `out` equals the scalar path's per-trial adds exactly.  `rng` feeds the
/// strategies' lane-major choices, one group after another, so the draw
/// sequence matches the scalar path's group loop.  The block must be
/// configure()d for `universe_size`, and the strategy must support
/// batching (ProbeStrategy::supports_batch).
void run_bit_sliced_trials(const ProbeStrategy& strategy,
                           BatchTrialBlock& block,
                           const std::uint64_t* lane_words,
                           std::size_t trial_count, std::size_t universe_size,
                           Rng& rng, CountMoments& out);

}  // namespace qps
