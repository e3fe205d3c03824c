// RandomOrderProbe: the universal randomized baseline.
//
// Probes uniformly random unprobed elements until the observations certify
// the system state (probed greens contain a quorum, or probed reds form a
// transversal).  Works on ANY quorum system through the characteristic
// function alone -- it is the generalization of R_Probe_Maj (for Maj all
// orders are equivalent, so there it is optimal; on structured systems the
// specialized algorithms beat it, which bench_baselines quantifies).
#pragma once

#include "core/strategy.h"
#include "quorum/quorum_system.h"

namespace qps {

class RandomOrderProbe final : public ProbeStrategy {
 public:
  explicit RandomOrderProbe(const QuorumSystem& system) : system_(&system) {}
  std::string name() const override { return "Random_Order"; }
  /// The random order lands in the workspace's reusable buffer.
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel, available when the system advertises a
  /// counting certificate c (quorum_count_certificate): each group's
  /// element rows are shuffled by a lane-major Fisher-Yates draw (as
  /// R_Probe_Maj's), then a counting scan stops a lane at c greens (probed
  /// greens contain a quorum) or n-c+1 reds (the unprobed + green set lost
  /// its last quorum).  run_lane() rebuilds the lane's order.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;
  std::size_t lane_choice_words() const override;
  void draw_lane_choices(Rng& rng, std::uint64_t* choices) const override;
  Witness run_lane(TrialWorkspace& workspace, ProbeSession& session,
                   const std::uint64_t* choices,
                   std::size_t lane) const override;

 private:
  const QuorumSystem* system_;
};

}  // namespace qps
