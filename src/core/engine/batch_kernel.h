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
//    so a probe step reads all lanes' answers in W word loads and a
//    deterministic scan never transposes anything;
//  * permuting strategies need per-trial rows: trial_masks() rebuilds them
//    on demand by the reverse tiled transpose, and after they fill
//    scratch_masks() and call use_scratch(), view() transposes the
//    permuted rows forward again.  load() binds per-trial rows directly
//    (ceil(n/64) words per trial, any universe size) for callers that
//    hold rows;
//  * a strategy's run_batch() override (core/strategy.h) pre-draws its
//    per-trial randomness into the block's side buffers (permuted masks,
//    plan masks) and then calls one of the block's width kernels, which walk
//    the probe structure once carrying an active-lane matrix -- divergence
//    between trials becomes mask arithmetic, never a per-trial branch;
//  * probe accounting is bit-sliced too: per-lane counters live as
//    bit_width(n) bit planes of W words each, charged by ripple-carry adds
//    inside the kernels, and per-lane stop detection is a plane-fold
//    equality against a constant;
//  * the reduction never unpacks a lane: fold_probe_planes() turns the
//    planes straight into exact integer moments (CountMoments, util/stats.h)
//    with popcounts -- sum, sum of squares, min and max of the counts.
//
// Contract: for every lane t < trial_count(), the probe count recovered by
// probe_count(t) must be bit-identical to what the scalar
// ProbeStrategy::run_with() path reports for trial t's coloring
// (tests/core/test_batch_kernel.cpp and test_simd.cpp enforce this per
// strategy x family x lane width), and fold_probe_counts() must equal those
// counts fed one by one through CountMoments::add.  The engine dispatches to
// this kernel via EngineOptions::execution (parallel_estimator.h) and always
// runs the production W = 4 table (core/engine/simd.h).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/coloring.h"
#include "core/engine/simd.h"
#include "util/element_set.h"

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

/// One super-block of up to 64*width trials in bit-sliced (per-element)
/// coloring layout, plus the bit-sliced probe accounting and the side
/// buffers batch strategies pre-draw their randomness into.  All storage is
/// sized once by configure(); load()/load_lanes()/view()/trial_masks() and
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
    mask_words_ = (universe_size + 63) / 64;
    const std::size_t w = kernels.width;
    element_greens_.assign(n_ * w, 0);
    probe_planes_.assign(planes_ * w, 0);
    tally_planes_.assign(planes_ * w, 0);
    active_.assign(w, 0);
    trial_rows_.assign(lane_capacity() * mask_words_, 0);
    scratch_masks_.assign(lane_capacity() * mask_words_, 0);
    trial_count_ = 0;
    source_masks_ = nullptr;
    transposed_ = false;
  }

  /// Binds `trial_count` (1 .. lane_capacity()) per-trial green-mask rows
  /// of mask_words() words each and resets the probe tallies.  The masks
  /// are transposed lazily by view(), so a permuting strategy that fills
  /// scratch_masks() and calls use_scratch() never pays for transposing
  /// the originals.  The mask rows must stay valid until the kernel runs.
  void load(const std::uint64_t* trial_green_masks, std::size_t trial_count) {
    begin_trials(trial_count);
    source_masks_ = trial_green_masks;
    transposed_ = false;
  }

  /// Binds `trial_count` (1 .. lane_capacity()) trials given as lane words
  /// in the sample_iid_lane_words layout: `group_words` points at the
  /// block's first group, and word g*n + e holds element e's colors for
  /// the block's trials [64g, 64g+64).  The ceil(trial_count/64) groups
  /// are copied into the element rows (lanes beyond trial_count cleared),
  /// so view() has nothing to transpose; per-trial rows are rebuilt only
  /// if a strategy asks for trial_masks().
  void load_lanes(const std::uint64_t* group_words, std::size_t trial_count) {
    begin_trials(trial_count);
    const std::size_t w = width();
    for (std::size_t e = 0; e < n_; ++e)
      for (std::size_t k = 0; k < w; ++k)
        element_greens_[e * w + k] =
            active_[k] != 0 ? group_words[k * n_ + e] & active_[k] : 0;
    source_masks_ = nullptr;
    transposed_ = true;
  }

  /// The kernels' window into the block; transposes bound mask rows into
  /// the per-element layout on first use after load()/use_scratch().
  BlockView view() {
    QPS_REQUIRE(trial_count_ >= 1, "load() trials before view()");
    if (!transposed_) {
      transpose_coloring_words_strided(source_masks_, trial_count_, n_,
                                       width(), element_greens_.data());
      transposed_ = true;
    }
    return BlockView{element_greens_.data(), probe_planes_.data(),
                     tally_planes_.data(),   active_.data(),
                     n_,                     planes_};
  }

  std::size_t universe_size() const { return n_; }
  std::size_t trial_count() const { return trial_count_; }
  /// Lane words per element row (the configured table's W).
  std::size_t width() const { return kernels_ == nullptr ? 0 : kernels_->width; }
  /// Trials per super-block: 64 * width().
  std::size_t lane_capacity() const { return 64 * width(); }
  /// Words per trial mask row: ceil(universe_size / 64).
  std::size_t mask_words() const { return mask_words_; }
  const SimdKernels& kernels() const {
    QPS_REQUIRE(kernels_ != nullptr, "configure() the block first");
    return *kernels_;
  }

  /// The bound trials as per-trial mask rows of mask_words() words: the
  /// load() source, the scratch buffer after use_scratch(), or -- after
  /// load_lanes() -- rows rebuilt from the element rows into a buffer
  /// sized by configure() (once per load).
  const std::uint64_t* trial_masks() {
    QPS_REQUIRE(trial_count_ >= 1, "load() trials before trial_masks()");
    if (source_masks_ == nullptr) {
      transpose_lane_words_to_rows(element_greens_.data(), trial_count_, n_,
                                   width(), 1, trial_rows_.data());
      source_masks_ = trial_rows_.data();
    }
    return source_masks_;
  }

  /// Writable buffer of lane_capacity() mask rows for permuting strategies;
  /// sized by configure(), so filling it never allocates.
  std::uint64_t* scratch_masks() { return scratch_masks_.data(); }

  /// Rebinds the block to scratch_masks() (and re-queues the transpose).
  /// Probe tallies and the active mask are kept from load().
  void use_scratch() {
    source_masks_ = scratch_masks_.data();
    transposed_ = false;
  }

  /// Reusable per-trial index buffer (permutations, row orders); strategies
  /// resize it to their need, the capacity sticks across blocks.
  std::vector<std::uint32_t>& order_buffer() { return order_buffer_; }

  /// Zeroed buffer of `words` lane words for pre-drawn per-lane structure
  /// masks (R_Probe_Tree plans, R_Probe_HQS orders); grows on first use,
  /// never shrinks.
  std::uint64_t* plan_masks(std::size_t words) {
    if (plan_masks_.size() < words) plan_masks_.resize(words);
    for (std::size_t i = 0; i < words; ++i) plan_masks_[i] = 0;
    return plan_masks_.data();
  }

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
  std::size_t mask_words_ = 0;
  std::size_t trial_count_ = 0;
  // The bound per-trial rows; null after load_lanes() until trial_masks()
  // rebuilds them.
  const std::uint64_t* source_masks_ = nullptr;
  bool transposed_ = false;  // element_greens_ holds the bound trials
  std::vector<std::uint64_t> element_greens_;  // n * W lane words
  std::vector<std::uint64_t> probe_planes_;    // planes * W
  std::vector<std::uint64_t> tally_planes_;    // planes * W kernel scratch
  std::vector<std::uint64_t> active_;          // W
  std::vector<std::uint64_t> trial_rows_;      // lane_capacity * mask_words
  std::vector<std::uint64_t> scratch_masks_;   // lane_capacity * mask_words
  std::vector<std::uint64_t> plan_masks_;
  std::vector<std::uint32_t> order_buffer_;
};

/// Applies an element permutation to one multi-word green mask row: bit j
/// of `dst` = bit perm[j] of `src` (so scanning dst in canonical order
/// 0..n-1 visits src's colors in the order perm[0], perm[1], ...).  `dst`
/// must not alias `src`; rows are ceil(n/64) words.
inline void permute_mask_words(const std::uint64_t* src,
                               const std::uint32_t* perm, std::size_t n,
                               std::uint64_t* dst) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) dst[w] = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t e = perm[j];
    dst[j >> 6] |= ((src[e >> 6] >> (e & 63)) & 1ULL) << (j & 63);
  }
}

class ProbeStrategy;
class Rng;

/// Drives `trial_count` trials through `strategy`'s bit-sliced kernel in
/// super-blocks of block.lane_capacity() lanes: load_lanes, run_batch,
/// then fold the super-block's probe counts into `out`.  `lane_words` is
/// a batch in the sample_iid_lane_words layout (ceil(trial_count/64)
/// groups of universe_size words).  The moments are exact integers, so
/// `out` equals the scalar path's per-trial adds exactly.  `rng` feeds the
/// strategies' pre-drawn per-trial randomness (permutations, plans),
/// consumed in trial order so the draw sequence matches the scalar loop's.
/// The block must be configure()d for `universe_size`, and the strategy
/// must support batching (ProbeStrategy::supports_batch).
void run_bit_sliced_trials(const ProbeStrategy& strategy,
                           BatchTrialBlock& block,
                           const std::uint64_t* lane_words,
                           std::size_t trial_count, std::size_t universe_size,
                           Rng& rng, CountMoments& out);

}  // namespace qps
