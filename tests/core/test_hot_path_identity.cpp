// Bit-identity of the zero-allocation hot path against the generic path.
//
// Two layers of guarantees:
//  * Strategy layer: for every strategy x family, run() (legacy,
//    self-allocating) and run_with() (workspace-backed) must return the
//    same witness at the same probe cost for equal generator states, on
//    any coloring.
//  * Engine layer: estimate_ppc / expected_probes_on on the hot path must
//    be bit-identical across thread counts, and expected_probes_on
//    bit-identical to the generic run() path (same draws, same stats).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/algorithms/greedy.h"
#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/algorithms/random_order.h"
#include "core/engine/trial_workspace.h"
#include "core/estimator.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"

namespace qps {
namespace {

struct Case {
  std::string label;
  std::shared_ptr<const QuorumSystem> system;
  std::shared_ptr<const ProbeStrategy> strategy;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const auto add = [&](std::string label,
                       std::shared_ptr<const QuorumSystem> system,
                       std::shared_ptr<const ProbeStrategy> strategy) {
    cases.push_back({std::move(label), std::move(system), std::move(strategy)});
  };

  auto maj21 = std::make_shared<MajoritySystem>(21);
  add("Probe_Maj/Maj21", maj21, std::make_shared<ProbeMaj>(*maj21));
  add("R_Probe_Maj/Maj21", maj21, std::make_shared<RProbeMaj>(*maj21));
  add("Random_Order/Maj21", maj21, std::make_shared<RandomOrderProbe>(*maj21));

  auto maj63 = std::make_shared<MajoritySystem>(63);
  add("Probe_Maj/Maj63", maj63, std::make_shared<ProbeMaj>(*maj63));
  add("R_Probe_Maj/Maj63", maj63, std::make_shared<RProbeMaj>(*maj63));

  auto maj7 = std::make_shared<MajoritySystem>(7);
  add("Greedy/Maj7", maj7, std::make_shared<GreedyCandidateProbe>(*maj7));

  auto tree2 = std::make_shared<TreeSystem>(2);  // n = 7
  add("Probe_Tree/Tree2", tree2, std::make_shared<ProbeTree>(*tree2));
  add("R_Probe_Tree/Tree2", tree2, std::make_shared<RProbeTree>(*tree2));
  add("Random_Order/Tree2", tree2,
      std::make_shared<RandomOrderProbe>(*tree2));
  add("Greedy/Tree2", tree2, std::make_shared<GreedyCandidateProbe>(*tree2));

  auto tree5 = std::make_shared<TreeSystem>(5);  // n = 63
  add("Probe_Tree/Tree5", tree5, std::make_shared<ProbeTree>(*tree5));
  add("R_Probe_Tree/Tree5", tree5, std::make_shared<RProbeTree>(*tree5));

  auto hqs2 = std::make_shared<HQSystem>(2);  // n = 9
  add("Probe_HQS/Hqs2", hqs2, std::make_shared<ProbeHQS>(*hqs2));
  add("R_Probe_HQS/Hqs2", hqs2, std::make_shared<RProbeHQS>(*hqs2));
  add("IR_Probe_HQS/Hqs2", hqs2, std::make_shared<IRProbeHQS>(*hqs2));

  auto hqs3 = std::make_shared<HQSystem>(3);  // n = 27
  add("Probe_HQS/Hqs3", hqs3, std::make_shared<ProbeHQS>(*hqs3));
  add("R_Probe_HQS/Hqs3", hqs3, std::make_shared<RProbeHQS>(*hqs3));
  add("IR_Probe_HQS/Hqs3", hqs3, std::make_shared<IRProbeHQS>(*hqs3));

  auto cw4 = std::make_shared<CrumblingWall>(CrumblingWall::triang(4));
  add("Probe_CW/Triang4", cw4, std::make_shared<ProbeCW>(*cw4));
  add("R_Probe_CW/Triang4", cw4, std::make_shared<RProbeCW>(*cw4));

  auto cw10 = std::make_shared<CrumblingWall>(CrumblingWall::triang(10));
  add("Probe_CW/Triang10", cw10, std::make_shared<ProbeCW>(*cw10));
  add("R_Probe_CW/Triang10", cw10, std::make_shared<RProbeCW>(*cw10));
  return cases;
}

TEST(HotPathIdentity, RunAndRunWithAgreeOnEveryStrategyAndFamily) {
  for (const Case& c : all_cases()) {
    const std::size_t n = c.system->universe_size();
    TrialWorkspace ws(n);
    Rng sample_rng(20010826);
    for (int trial = 0; trial < 100; ++trial) {
      const double p = 0.2 + 0.2 * static_cast<double>(trial % 4);
      const Coloring coloring = sample_iid_coloring(n, p, sample_rng);
      Rng legacy_rng(1000 + trial), hot_rng(1000 + trial);

      ProbeSession legacy_session(coloring);
      const Witness legacy = c.strategy->run(legacy_session, legacy_rng);

      ProbeSession& hot_session = ws.begin_trial(coloring);
      const Witness hot = c.strategy->run_with(ws, hot_session, hot_rng);

      ASSERT_EQ(legacy_session.probe_count(), hot_session.probe_count())
          << c.label << " trial " << trial;
      ASSERT_EQ(legacy.color, hot.color) << c.label << " trial " << trial;
      ASSERT_EQ(legacy.elements, hot.elements)
          << c.label << " trial " << trial;
      ASSERT_EQ(legacy_session.probed(), hot_session.probed())
          << c.label << " trial " << trial;
      // Both entry points must also have consumed the same randomness.
      ASSERT_EQ(legacy_rng.next_u64(), hot_rng.next_u64())
          << c.label << " trial " << trial;
    }
  }
}

EngineOptions engine_options(std::size_t threads) {
  EngineOptions options;
  options.trials = 6000;
  options.threads = threads;
  options.batch_size = 512;
  options.seed = 42;
  return options;
}

TEST(HotPathIdentity, ExpectedProbesOnMatchesGenericEnginePath) {
  const MajoritySystem maj(15);
  const RandomOrderProbe strategy(maj);
  Rng sample_rng(5);
  const Coloring coloring = sample_iid_coloring(15, 0.5, sample_rng);
  const auto options = engine_options(3);
  const ParallelEstimator engine(options);
  const RunningStats generic = engine.run([&](Rng& rng) {
    return run_probe_trial(maj, strategy, coloring, false, rng);
  });
  const RunningStats hot = engine.expected_probes_on(maj, strategy, coloring);
  EXPECT_EQ(generic.count(), hot.count());
  EXPECT_EQ(generic.mean(), hot.mean());
  EXPECT_EQ(generic.variance(), hot.variance());
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
    Witness run(ProbeSession& session, Rng&) const override {
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
