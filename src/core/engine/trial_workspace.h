// TrialWorkspace: per-worker scratch arena for the Monte-Carlo hot path.
//
// One Monte-Carlo trial needs a sampled coloring, a probe session, and --
// per strategy -- order buffers or candidate masks.  Allocating these per
// trial dominated the runtime of the estimation engine; a TrialWorkspace
// owns them all, is constructed once per ParallelEstimator worker, and is
// recycled between trials:
//
//   TrialWorkspace ws(system.universe_size());
//   for (trial : batch) {
//     ws.coloring().assign_greens_mask(masks[trial]);      // n <= 64
//     ProbeSession& session = ws.begin_trial(ws.coloring());
//     Witness w = strategy.run_with(ws, session, rng);
//   }
//
// For the paper's universes (n <= 64, single-word ElementSets) the loop
// body performs no heap allocation in the steady state; strategies reach
// the reusable buffers through their one per-trial entry point,
// ProbeStrategy::run_with (core/strategy.h).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/coloring.h"
#include "core/engine/batch_kernel.h"
#include "core/probe_session.h"

namespace qps {

class TrialWorkspace {
 public:
  explicit TrialWorkspace(std::size_t universe_size);

  // The session points at this workspace's own coloring slot, so copying
  // or moving would leave it reading another (or dead) workspace's state.
  TrialWorkspace(const TrialWorkspace&) = delete;
  TrialWorkspace& operator=(const TrialWorkspace&) = delete;

  std::size_t universe_size() const { return coloring_.universe_size(); }

  /// The workspace's reusable coloring slot.  The engine refills it via
  /// Coloring::assign_greens_mask between trials.
  Coloring& coloring() { return coloring_; }

  /// Rebinds the session to `coloring` (usually the workspace's own slot,
  /// but any coloring over the same universe works, e.g. the fixed coloring
  /// of expected_probes_on) and clears all per-trial probe state.
  ProbeSession& begin_trial(const Coloring& coloring) {
    session_.reset(coloring);
    return session_;
  }

  ProbeSession& session() { return session_; }

  /// Batch buffer of per-trial green-mask rows (ceil(n/64) words each, the
  /// sample_iid_coloring_words layout), grown to `count` rows.  Contents
  /// are unspecified until the caller fills them.
  std::uint64_t* coloring_masks(std::size_t count) {
    const std::size_t words = count * ((universe_size() + 63) / 64);
    if (coloring_masks_.size() < words) coloring_masks_.resize(words);
    return coloring_masks_.data();
  }

  /// Batch buffer of lane words for `count` trials (ceil(count/64) groups
  /// of n words, the sample_iid_lane_words layout), grown on demand.
  /// Contents are unspecified until the caller fills them.
  std::uint64_t* lane_words(std::size_t count) {
    const std::size_t words = (count + 63) / 64 * universe_size();
    if (lane_words_.size() < words) lane_words_.resize(words);
    return lane_words_.data();
  }

  /// Buffer for one 64-lane group's drawn strategy choices
  /// (ProbeStrategy::draw_lane_choices), grown to `words` on demand.
  std::uint64_t* lane_choices(std::size_t words) {
    if (lane_choices_.size() < words) lane_choices_.resize(words);
    return lane_choices_.data();
  }

  /// Reusable element-order buffer (randomized strategies refill it with
  /// Rng::permutation_into, or from a lane's drawn shuffle).
  std::vector<std::uint32_t>& order_buffer() { return order_; }

  /// Independent reusable word-mask buffers (e.g. the greedy baseline's
  /// live / dead / unhit candidate masks).
  static constexpr std::size_t kWordBufferCount = 4;
  std::vector<std::uint64_t>& word_buffer(std::size_t slot) {
    return word_buffers_.at(slot);
  }

  /// The worker's bit-sliced batch block (core/engine/batch_kernel.h):
  /// storage sized once by BatchTrialBlock::configure, reloaded per
  /// super-block by estimate_ppc's bit-sliced path.
  BatchTrialBlock& batch_block() { return batch_block_; }

 private:
  Coloring coloring_;
  ProbeSession session_;
  std::vector<std::uint64_t> coloring_masks_;
  std::vector<std::uint64_t> lane_words_;
  std::vector<std::uint64_t> lane_choices_;
  std::vector<std::uint32_t> order_;
  std::array<std::vector<std::uint64_t>, kWordBufferCount> word_buffers_;
  BatchTrialBlock batch_block_;
};

}  // namespace qps
