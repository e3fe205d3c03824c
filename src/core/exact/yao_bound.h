// Yao lower bounds (Section 4): the expected cost of the best deterministic
// algorithm against an explicit input distribution lower-bounds the
// randomized probe complexity PCR(S).
//
// Given a finite distribution over colorings, the optimal deterministic
// adaptive strategy satisfies
//   V(state) = min_e 1 + P[e green | state] V(+green) + P[e red | state] V(+red)
// with conditioning on the colorings consistent with the knowledge state.
// Solved by the DistributionPolicy instantiation of the shared DP kernel
// (core/exact/dp_kernel.h), which tabulates the consistent-support mass of
// every state level by level and feeds the child masses to the transition
// as conditional probabilities.  With the paper's hard distributions this
// reproduces the exact values of Thm 4.2 (n - (n-1)/(n+3) for Maj),
// Thm 4.6 ((n+k)/2 for walls) and Thm 4.8 (2(n+1)/3 for Tree).
#pragma once

#include "core/coloring.h"
#include "core/exact/dp_kernel.h"
#include "quorum/quorum_system.h"

namespace qps {

/// Expected probes of the best deterministic strategy against
/// `distribution`.  Feasibility is the kernel's memory formula (value +
/// weight doubles per state): the default 8 GiB budget admits n <= 19, and
/// n = 20 needs DpOptions::memory_limit_bytes of about 19 GiB
/// (dp_peak_bytes(20, 8, true, false) is about 18.9 GiB).  Sizes the budget
/// rejects throw std::invalid_argument (exact::require_dp_feasible), as
/// ppc_exact and pc_exact do.
double yao_bound(const QuorumSystem& system,
                 const ColoringDistribution& distribution);

/// As above with explicit kernel options (thread count, memory budget).
double yao_bound(const QuorumSystem& system,
                 const ColoringDistribution& distribution,
                 const exact::DpOptions& options);

}  // namespace qps
