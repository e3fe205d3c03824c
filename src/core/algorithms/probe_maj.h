// Probing algorithms for the Majority system.
//
// Probabilistic model (Prop. 3.2): probe elements in any fixed order until
// (n+1)/2 elements of one color are seen; all elements are symmetric, so
// the fixed order is optimal and E[probes] = n - theta(sqrt(n)) at p = 1/2
// and n/(2q) + o(1) for p < q.
//
// Randomized worst-case model (Thm 4.2): R_Probe_Maj probes uniformly at
// random without replacement; its worst-case expected cost is exactly
// n - (n-1)/(n+3).
#pragma once

#include "core/strategy.h"
#include "quorum/majority.h"

namespace qps {

/// Deterministic sequential prober (optimal in the probabilistic model).
class ProbeMaj final : public ProbeStrategy {
 public:
  explicit ProbeMaj(const MajoritySystem& system) : system_(&system) {}
  std::string name() const override { return "Probe_Maj"; }
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel: 64*W trials per block via the kernel table's
  /// count_scan -- bit-sliced green tallies, per-lane stop detection by
  /// plane equality against the threshold.  Any universe size.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;

 private:
  const MajoritySystem* system_;
};

/// Uniformly random prober (Thm 4.2's optimal randomized algorithm).
class RProbeMaj final : public ProbeStrategy {
 public:
  explicit RProbeMaj(const MajoritySystem& system) : system_(&system) {}
  std::string name() const override { return "R_Probe_Maj"; }
  /// The random order lands in the workspace's reusable buffer.
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel: each group draws a lane-major Fisher-Yates
  /// shuffle (draw_lane_shuffle) and applies it to the element rows in
  /// place (probing random elements in canonical order == probing
  /// canonical elements of the shuffled coloring), then the same
  /// count_scan as Probe_Maj runs on the shuffled block.  run_lane()
  /// rebuilds the lane's order from the same draws.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;
  std::size_t lane_choice_words() const override;
  void draw_lane_choices(Rng& rng, std::uint64_t* choices) const override;
  Witness run_lane(TrialWorkspace& workspace, ProbeSession& session,
                   const std::uint64_t* choices,
                   std::size_t lane) const override;

 private:
  const MajoritySystem* system_;
};

}  // namespace qps
