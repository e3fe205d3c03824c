// A generic candidate-counting probe heuristic, in the spirit of the
// strategies studied empirically by Guerni-Mahoui et al. [4] and
// Neilson [11]: probe the element that appears in the largest number of
// still-alive candidate quorums (ties broken by smallest id).  It operates
// on the enumerated quorum list, so it is restricted to systems whose
// quorums can be enumerated; it serves as the baseline the paper's
// structured algorithms are compared against in the benches.
//
// Candidate bookkeeping is bit-sliced: the constructor precomputes, per
// element, the word-mask of quorums containing it, and a run tracks the
// live / dead / not-yet-blocked candidate sets as word masks, so the
// density scoring is popcounts instead of per-quorum membership tests.
// The per-run masks live in the caller's TrialWorkspace, so steady-state
// trials allocate nothing and all scratch ownership is explicit.
#pragma once

#include <cstdint>
#include <vector>

#include "core/strategy.h"
#include "quorum/quorum_system.h"

namespace qps {

class GreedyCandidateProbe final : public ProbeStrategy {
 public:
  /// Enumerates the quorums of `system` up front.
  explicit GreedyCandidateProbe(const QuorumSystem& system);

  std::string name() const override { return "Greedy_Candidate"; }
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;

 private:
  const QuorumSystem* system_;
  std::vector<ElementSet> quorums_;
  /// member_[e * mask_words_ + w]: bit q of word w set iff element e is in
  /// quorum 64w + q.
  std::vector<std::uint64_t> member_;
  std::size_t mask_words_ = 0;
};

}  // namespace qps
