// Test support: the engine's scalar trial loop over per-trial rows, the
// per-lane reference every bit-sliced count is checked against.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine/trial_workspace.h"
#include "core/strategy.h"

namespace qps {

/// Runs `count` trials on per-trial green-mask rows (ceil(n/64) words
/// each) the way estimate_ppc's scalar path does: a strategy with lane
/// choices runs each trial from its lane of the group drawn at the group's
/// first trial (draw_lane_choices + run_lane), any other through run_with
/// on `rng`.  Returns the per-trial probe counts.
inline std::vector<std::uint32_t> scalar_lane_counts(
    const ProbeStrategy& strategy, TrialWorkspace& ws,
    const std::uint64_t* masks, std::size_t count, Rng& rng) {
  const std::size_t stride = (ws.universe_size() + 63) / 64;
  std::vector<std::uint64_t> choices(strategy.lane_choice_words());
  std::vector<std::uint32_t> counts;
  for (std::size_t t = 0; t < count; ++t) {
    ws.coloring().assign_greens_words(masks + t * stride);
    ProbeSession& session = ws.begin_trial(ws.coloring());
    if (choices.empty()) {
      (void)strategy.run_with(ws, session, rng);
    } else {
      if (t % 64 == 0) strategy.draw_lane_choices(rng, choices.data());
      (void)strategy.run_lane(ws, session, choices.data(), t % 64);
    }
    counts.push_back(static_cast<std::uint32_t>(session.probe_count()));
  }
  return counts;
}

}  // namespace qps
