// Exact per-coloring expectations of the randomized algorithms.
//
// On a fixed coloring, every subtree's value / witness color is
// deterministic; only the algorithm's own coin flips are random.  The
// expectations therefore satisfy small local recursions over the structure
// (enumerating the O(1) random choices at each node), which these
// evaluators compute exactly in O(n).  They serve three purposes:
//   * validating the Monte-Carlo estimator,
//   * evaluating worst-case inputs exactly (e.g. the family P of
//     Lemma 4.11, or the all-but-majority-red inputs of Thm 4.2),
//   * reproducing the Fig. 9 two-level constant of IR_Probe_HQS.
#pragma once

#include "core/coloring.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"

namespace qps {

/// Exact E[probes] of R_Probe_Maj on a coloring with the given red count.
double r_probe_maj_expectation(const MajoritySystem& system,
                               const Coloring& coloring);

/// Exact E[probes] of R_Probe_CW on the given coloring.
double r_probe_cw_expectation(const CrumblingWall& wall,
                              const Coloring& coloring);

/// Exact E[probes] of R_Probe_Tree on the given coloring.
double r_probe_tree_expectation(const TreeSystem& tree,
                                const Coloring& coloring);

/// Exact E[probes] of R_Probe_HQS on the given coloring.
double r_probe_hqs_expectation(const HQSystem& hqs, const Coloring& coloring);

/// Exact E[probes] of IR_Probe_HQS on the given coloring.
double ir_probe_hqs_expectation(const HQSystem& hqs, const Coloring& coloring);

/// Exact PPC_p of IR_Probe_HQS under i.i.d. failure probability p, by
/// enumeration: the sum over all 2^n colorings of
/// p^reds (1-p)^greens * ir_probe_hqs_expectation.  Heights <= 2 (n <= 9)
/// only; beyond that the enumeration is out of reach.
double ir_probe_hqs_ppc(const HQSystem& hqs, double p);

}  // namespace qps
