// Bit-identity of the zero-allocation hot path against the generic path:
// estimate_ppc / expected_probes_on on the hot path must be bit-identical
// across thread counts, and expected_probes_on bit-identical to the generic
// ParallelEstimator::run() path over run_probe_trial (same draws, same
// stats) at any universe size.
#include <gtest/gtest.h>

#include "core/algorithms/probe_tree.h"
#include "core/algorithms/random_order.h"
#include "core/estimator.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"

namespace qps {
namespace {

EngineOptions engine_options(std::size_t threads) {
  EngineOptions options;
  options.trials = 6000;
  options.threads = threads;
  options.batch_size = 512;
  options.seed = 42;
  return options;
}

void expect_expected_probes_on_matches_generic(const QuorumSystem& system,
                                               const ProbeStrategy& strategy,
                                               const Coloring& coloring) {
  const ParallelEstimator engine(engine_options(3));
  const RunningStats generic = engine.run([&](Rng& rng) {
    return run_probe_trial(system, strategy, coloring, false, rng);
  });
  const RunningStats hot =
      engine.expected_probes_on(system, strategy, coloring);
  EXPECT_EQ(generic.count(), hot.count()) << strategy.name();
  EXPECT_EQ(generic.mean(), hot.mean()) << strategy.name();
  EXPECT_EQ(generic.variance(), hot.variance()) << strategy.name();
}

TEST(HotPathIdentity, ExpectedProbesOnMatchesGenericEnginePath) {
  const MajoritySystem maj(15);
  const RandomOrderProbe strategy(maj);
  Rng sample_rng(5);
  const Coloring coloring = sample_iid_coloring(15, 0.5, sample_rng);
  expect_expected_probes_on_matches_generic(maj, strategy, coloring);

  // Above one word (n = 127): the workspace path serves every size.
  const TreeSystem tree(6);
  const RProbeTree r_probe_tree(tree);
  const Coloring wide = sample_iid_coloring(127, 0.5, sample_rng);
  expect_expected_probes_on_matches_generic(tree, r_probe_tree, wide);
}

TEST(HotPathIdentity, WordBatchSamplerIsThreadCountInvariant) {
  // The default estimate_ppc path (batched word sampling + workspaces).
  const TreeSystem tree(3);  // n = 15
  const RProbeTree strategy(tree);
  const auto baseline =
      ParallelEstimator(engine_options(1)).estimate_ppc(tree, strategy, 0.3);
  for (std::size_t threads : {2u, 4u, 8u}) {
    const auto stats = ParallelEstimator(engine_options(threads))
                           .estimate_ppc(tree, strategy, 0.3);
    EXPECT_EQ(stats.count(), baseline.count()) << threads;
    EXPECT_EQ(stats.mean(), baseline.mean()) << threads;
    EXPECT_EQ(stats.variance(), baseline.variance()) << threads;
    EXPECT_EQ(stats.min(), baseline.min()) << threads;
    EXPECT_EQ(stats.max(), baseline.max()) << threads;
  }
}

TEST(HotPathIdentity, ValidationStillCatchesBadWitnessesOnTheHotPath) {
  class Broken final : public ProbeStrategy {
   public:
    std::string name() const override { return "Broken"; }
    Witness run_with(TrialWorkspace&, ProbeSession& session,
                     Rng&) const override {
      session.probe(0);
      Witness w;
      w.color = Color::kGreen;
      w.elements = ElementSet(session.universe_size());
      w.elements.insert(0);
      return w;
    }
  };
  const MajoritySystem maj(5);
  const Broken broken;
  auto options = engine_options(2);
  options.validate_witnesses = true;
  EXPECT_THROW(ParallelEstimator(options).estimate_ppc(maj, broken, 0.5),
               std::logic_error);
}

}  // namespace
}  // namespace qps
