// Probing algorithms for Crumbling Walls.
//
// Probe_CW (Fig. 5, Thm 3.3) scans rows top-down keeping a monochromatic
// witness W for the wall scanned so far; in each row it looks for one
// element matching the current mode, and on failure the whole
// (monochromatic, opposite-colored) row replaces W.  Its expected cost in
// the probabilistic model is at most 2k - 1 for any p -- independent of n.
//
// R_Probe_CW (Section 4.2, Thm 4.4) scans rows bottom-up, probing random
// elements of each row until both colors are seen or the row is exhausted;
// a monochromatic row ends the scan.  Worst-case expected cost
// max_j { n_j + sum_{i>j} ((n_i+1)/2 + 1/n_i) }.
#pragma once

#include <cstdint>
#include <vector>

#include "core/strategy.h"
#include "quorum/crumbling_wall.h"

namespace qps {

namespace cw_detail {
/// The wall's rows as a row_begin offset array (row_count+1 entries, rows
/// partition [0, n) contiguously) -- the plain-array row layout the batch
/// kernels (core/engine/simd.h) take.
inline std::vector<std::uint32_t> row_offsets(const CrumblingWall& wall) {
  std::vector<std::uint32_t> offsets;
  offsets.reserve(wall.row_count() + 1);
  for (std::size_t row = 0; row < wall.row_count(); ++row)
    offsets.push_back(wall.row_begin(row));
  offsets.push_back(static_cast<std::uint32_t>(wall.universe_size()));
  return offsets;
}
}  // namespace cw_detail

/// Fig. 5's deterministic top-down algorithm.  Within a row, elements are
/// probed left to right (the order is irrelevant in the i.i.d. model).
class ProbeCW final : public ProbeStrategy {
 public:
  explicit ProbeCW(const CrumblingWall& wall)
      : wall_(&wall), row_offsets_(cw_detail::row_offsets(wall)) {}
  std::string name() const override { return "Probe_CW"; }
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel: the top-down row scan with a per-lane mode
  /// word; lanes leave a row as soon as they match their mode.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;

 private:
  const CrumblingWall* wall_;
  std::vector<std::uint32_t> row_offsets_;
};

/// Section 4.2's randomized bottom-up algorithm.
class RProbeCW final : public ProbeStrategy {
 public:
  explicit RProbeCW(const CrumblingWall& wall)
      : wall_(&wall), row_offsets_(cw_detail::row_offsets(wall)) {}
  std::string name() const override { return "R_Probe_CW"; }
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel: each group draws a lane-major Fisher-Yates
  /// shuffle per row, rows bottom-up, and applies it to that row's element
  /// rows in place; a bottom-up masked scan then probes each row until
  /// both colors are seen.  run_lane() rebuilds the lane's row orders.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;
  std::size_t lane_choice_words() const override;
  void draw_lane_choices(Rng& rng, std::uint64_t* choices) const override;
  Witness run_lane(TrialWorkspace& workspace, ProbeSession& session,
                   const std::uint64_t* choices,
                   std::size_t lane) const override;

 private:
  const CrumblingWall* wall_;
  std::vector<std::uint32_t> row_offsets_;
};

}  // namespace qps
