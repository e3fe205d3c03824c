// The (family, size) -> QuorumSystem factory every sweep evaluator uses.
//
// A sweep point names its quorum system by coordinates ("family=cw/
// size=1"); standard_system() turns them into the system, so the
// coordinator, its --workers children and its --connect workers -- each a
// copy of the same bench binary -- agree on what a point means.  The
// crumbling-wall table is part of that contract.
#pragma once

#include <memory>
#include <string>
#include <vector>

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

}  // namespace qps::sweep
