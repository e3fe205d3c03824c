// The pre-kernel recursive exact solvers, kept as independent references.
//
// Before the dense DP kernel (core/exact/dp_kernel.h), PC, PPC and the Yao
// bounds were each solved by a single-threaded memoized search over a hash
// map of knowledge states, capped at small n.  Those solvers live on here,
// verbatim, as the kernel's differential oracle: the DpKernel suite
// asserts that both engines agree on every seed family at sizes the
// recursion can reach.  They are part of the test support library, not of
// libqps; production code calls the kernel adapters (pc_exact, ppc_exact,
// yao_bound).
#pragma once

#include <cstddef>

#include "core/coloring.h"
#include "quorum/quorum_system.h"

namespace qps::exact::legacy {

/// Memoized minimax search for PC(S); requires universe_size() <= 14.
std::size_t pc_exact_recursive(const QuorumSystem& system);

/// Memoized Bellman search for PPC_p(S); requires universe_size() <= 14.
double ppc_exact_recursive(const QuorumSystem& system, double p);

/// The smallest root element achieving the Bellman minimum, by the
/// recursive engine; requires universe_size() <= 14.
std::size_t ppc_optimal_first_probe_recursive(const QuorumSystem& system,
                                              double p);

/// Memoized conditional-expectation search for the Yao bound; requires
/// universe_size() <= 20 and a materialized distribution.
double yao_bound_recursive(const QuorumSystem& system,
                           const ColoringDistribution& distribution);

}  // namespace qps::exact::legacy
