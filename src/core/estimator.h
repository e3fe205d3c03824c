// Monte-Carlo measurement harness.
//
// Three measurement modes, matching the paper's three models:
//  * estimate_ppc: expected probes under i.i.d. element failures
//    (the probabilistic model of Section 3);
//  * expected_probes_on: expected probes of a (randomized) strategy on one
//    fixed coloring (the inner expectation of the randomized model);
//  * worst_case_search: hill-climbing adversary over colorings, maximizing
//    the estimated expected probes -- an empirical lower bound on the
//    worst-case expectation sup_c E[probes] of Section 4.
// Every run can optionally validate the returned witness against the
// ground truth coloring; validation failures throw.
//
// Every estimate runs on the ParallelEstimator worker pool
// (core/engine/parallel_estimator.h) with deterministic per-batch RNG
// streams and optional early stop; `threads = 1` runs it on the calling
// thread with the same result.
#pragma once

#include <optional>

#include "core/coloring.h"
#include "core/engine/parallel_estimator.h"
#include "core/strategy.h"
#include "quorum/quorum_system.h"
#include "util/rng.h"
#include "util/stats.h"

namespace qps {

/// Expected probes of `strategy` when every element fails i.i.d. with
/// probability `p`: trials sharded across `options.threads` workers,
/// reproducible from `options.seed` regardless of thread count.
RunningStats estimate_ppc(const QuorumSystem& system,
                          const ProbeStrategy& strategy, double p,
                          const EngineOptions& options);

/// Expected probes of `strategy` on the fixed `coloring` (expectation over
/// the strategy's internal randomness).
RunningStats expected_probes_on(const QuorumSystem& system,
                                const ProbeStrategy& strategy,
                                const Coloring& coloring,
                                const EngineOptions& options);

struct WorstCaseResult {
  Coloring coloring;
  double expected_probes = 0.0;
};

/// Hill-climbing search for a coloring maximizing the estimated expected
/// probes of `strategy`.  Starts from `seed_coloring` (or all-red when
/// absent), repeatedly accepting single-element flips, proposed from `rng`,
/// that do not decrease the estimate.  Every inner expectation runs on the
/// engine with `engine_options`, whose `trials` is the per-evaluation
/// budget.
WorstCaseResult worst_case_search(const QuorumSystem& system,
                                  const ProbeStrategy& strategy,
                                  std::optional<Coloring> seed_coloring,
                                  std::size_t rounds, Rng& rng,
                                  const EngineOptions& engine_options);

}  // namespace qps
