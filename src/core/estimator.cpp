#include "core/estimator.h"

namespace qps {

RunningStats estimate_ppc(const QuorumSystem& system,
                          const ProbeStrategy& strategy, double p,
                          const EngineOptions& options) {
  return ParallelEstimator(options).estimate_ppc(system, strategy, p);
}

RunningStats expected_probes_on(const QuorumSystem& system,
                                const ProbeStrategy& strategy,
                                const Coloring& coloring,
                                const EngineOptions& options) {
  return ParallelEstimator(options).expected_probes_on(system, strategy,
                                                       coloring);
}

WorstCaseResult worst_case_search(const QuorumSystem& system,
                                  const ProbeStrategy& strategy,
                                  std::optional<Coloring> seed_coloring,
                                  std::size_t rounds, Rng& rng,
                                  const EngineOptions& engine_options) {
  // Every evaluation reuses the same engine seed: common random numbers
  // across colorings, so a flip is judged on the coloring change rather
  // than on sampling noise.
  const ParallelEstimator engine(engine_options);
  const auto evaluate = [&](const Coloring& c) {
    return engine.expected_probes_on(system, strategy, c).mean();
  };
  const std::size_t n = system.universe_size();
  Coloring current = seed_coloring.value_or(Coloring(n));
  double current_score = evaluate(current);
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto e = static_cast<Element>(rng.below(n));
    const Coloring flipped = current.with(e, opposite(current.color(e)));
    const double flipped_score = evaluate(flipped);
    if (flipped_score >= current_score) {
      current = flipped;
      current_score = flipped_score;
    }
  }
  return {current, current_score};
}

}  // namespace qps
