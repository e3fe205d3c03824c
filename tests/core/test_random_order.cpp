// The universal RandomOrderProbe baseline.
#include "core/algorithms/random_order.h"

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/expectation.h"
#include "core/witness.h"
#include "quorum/crumbling_wall.h"
#include "quorum/fpp.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"

namespace qps {
namespace {

TEST(RandomOrder, ValidWitnessesOnEveryColoringOfEverySystem) {
  const MajoritySystem maj(5);
  const CrumblingWall wall({1, 2, 3});
  const TreeSystem tree(2);
  const HQSystem hqs(2);
  const FppSystem fano(2);
  const std::vector<const QuorumSystem*> systems = {&maj, &wall, &tree, &hqs,
                                                    &fano};
  Rng rng(606);
  for (const QuorumSystem* system : systems) {
    const RandomOrderProbe strategy(*system);
    const std::size_t n = system->universe_size();
    for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
      const Coloring coloring(n, ElementSet::from_mask(n, mask));
      ProbeSession session(coloring);
      const Witness witness = strategy.run(session, rng);
      ASSERT_EQ(
          validate_witness(*system, coloring, witness, session.probed()), "")
          << system->name() << " mask=" << mask;
    }
  }
}

TEST(RandomOrder, MatchesRProbeMajOnMajority) {
  // On Maj, random order IS R_Probe_Maj: its expectation on a coloring
  // with r reds must equal the urn formula.
  const MajoritySystem maj(9);
  const RandomOrderProbe strategy(maj);
  EngineOptions options;
  options.trials = 60000;
  options.threads = 1;
  options.seed = 7;
  const Coloring coloring(9, ElementSet(9, {0, 1, 2, 3}));  // 5 reds
  const auto stats =
      expected_probes_on(maj, strategy, coloring, options);
  const double exact = r_probe_maj_expectation(maj, coloring);
  EXPECT_NEAR(stats.mean(), exact, 4 * stats.ci95_halfwidth());
}

TEST(RandomOrder, LosesToStructuredAlgorithmsOnWalls) {
  // On a wide wall the universal baseline pays ~n/2 while Probe_CW pays
  // O(k): the gap the paper's Section 3.2 is about.
  const CrumblingWall wall({1, 20, 20});
  const RandomOrderProbe random_order(wall);
  EngineOptions options;
  options.trials = 4000;
  options.threads = 1;
  options.seed = 8;
  const auto stats = estimate_ppc(wall, random_order, 0.5, options);
  EXPECT_GT(stats.mean(), 8.0);  // far above Probe_CW's <= 5
}

TEST(RandomOrder, NeverProbesMoreThanN) {
  const TreeSystem tree(3);
  const RandomOrderProbe strategy(tree);
  Rng rng(9);
  for (int t = 0; t < 100; ++t) {
    const Coloring coloring = sample_iid_coloring(15, 0.5, rng);
    ProbeSession session(coloring);
    strategy.run(session, rng);
    EXPECT_LE(session.probe_count(), 15u);
  }
}

}  // namespace
}  // namespace qps
