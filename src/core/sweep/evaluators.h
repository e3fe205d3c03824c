// Standard sweep evaluators: the registry behind generic remote workers.
//
// A bench re-invoked as a worker (--worker over a socketpair, --connect
// over TCP) rebuilds its evaluator from its own argv; a generic worker
// daemon (tools/qps_workerd) cannot, so it serves only sweeps whose
// evaluator is registered here by id.  The coordinator advertises the id
// in the handshake welcome alongside the serialized spec, and both sides
// must compute bit-identical results for the same point -- which they do
// because every registered evaluator is a pure function of the point (and
// of nothing machine-local; thread counts may differ because the exact DP
// kernel is bit-identical across thread counts by contract).
//
// standard_system() is the shared (family, size) -> QuorumSystem factory
// those evaluators and the bench harnesses both use, so a daemon-computed
// point and a coordinator-computed point agree on what "family=cw/size=1"
// means.  The crumbling-wall table is part of that contract.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/sweep/sweep_runner.h"
#include "quorum/quorum_system.h"

namespace qps::sweep {

/// The crumbling walls addressable as family "cw" (size indexes this
/// table).
const std::vector<std::vector<std::size_t>>& standard_crumbling_walls();

/// Builds the quorum system a sweep point's (family, size) coordinates
/// name: "maj", "tree", "hqs", "cw", or "wheel".  Throws
/// std::invalid_argument on an unknown family.
std::unique_ptr<QuorumSystem> standard_system(const std::string& family,
                                              std::size_t size);

/// Evaluator ids a generic worker daemon can serve, in stable order.
const std::vector<std::string>& standard_evaluator_ids();

/// Looks up a registered evaluator; an empty function when `id` is
/// unknown.  `dp_threads` configures the exact kernel's thread count
/// (0 = hardware concurrency); it does not affect results.
///
/// Registered ids:
///   "exact_ppc" -- one exact Bellman PPC_p solve of
///                  standard_system(family, size) at the point's p.
PointEvaluator find_standard_evaluator(const std::string& id,
                                       std::size_t dp_threads);

}  // namespace qps::sweep
