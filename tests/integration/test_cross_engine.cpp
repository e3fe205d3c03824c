// Differential testing across independent engines on randomized inputs.
//
// Random weighted-voting coteries (intersection guaranteed by the
// threshold condition) are pushed through every engine and strategy, and
// the invariants that must relate them are asserted:
//   * PPC_p(S) <= PCR(S) <= PC(S)  (models are ordered),
//   * PPC is symmetric in p <-> 1-p iff the coterie is self-dual,
//   * every strategy's Monte-Carlo mean >= the PPC optimum,
//   * availability enumeration == Fact 2.3 relations for ND systems,
//   * witnesses validate on every run.
#include <gtest/gtest.h>

#include <memory>

#include "core/algorithms/greedy.h"
#include "core/algorithms/random_order.h"
#include "core/estimator.h"
#include "core/exact/pc_exact.h"
#include "core/exact/pcr_exact.h"
#include "core/exact/ppc_exact.h"
#include "core/exact/decision_tree.h"
#include "quorum/availability.h"
#include "quorum/properties.h"
#include "quorum/vote_system.h"

namespace qps {
namespace {

VoteSystem random_vote_system(Rng& rng, std::size_t n) {
  while (true) {
    std::vector<std::size_t> votes(n);
    std::size_t total = 0;
    for (auto& w : votes) {
      w = 1 + rng.below(4);
      total += w;
    }
    const std::size_t threshold = total / 2 + 1;
    if (2 * threshold > total && threshold <= total)
      return VoteSystem(std::move(votes), threshold);
  }
}

TEST(CrossEngine, ModelsAreOrderedOnRandomCoteries) {
  Rng rng(1234);
  for (int trial = 0; trial < 12; ++trial) {
    const VoteSystem system = random_vote_system(rng, 4 + rng.below(2));
    const double ppc = ppc_exact(system, 0.5);
    const double pcr = pcr_exact(system).value;
    const auto pc = static_cast<double>(pc_exact(system));
    EXPECT_LE(ppc, pcr + 1e-9) << system.name() << " trial " << trial;
    EXPECT_LE(pcr, pc + 1e-9) << system.name() << " trial " << trial;
    // Thm 4.1: PCR >= max quorum size.
    EXPECT_GE(pcr + 1e-9, static_cast<double>(system.max_quorum_size()))
        << system.name();
    // For ND coteries every certificate is a monochromatic quorum, so even
    // the best case needs min_quorum_size probes.  (Dominated systems can
    // certify failure through a smaller transversal -- e.g. one veto
    // member -- so the floor is restricted to self-dual systems.)
    if (is_self_dual(system)) {
      EXPECT_GE(ppc + 1e-9, static_cast<double>(system.min_quorum_size()))
          << system.name();
    }
  }
}

TEST(CrossEngine, PpcSymmetryCharacterizesSelfDuality) {
  Rng rng(99);
  int self_dual_seen = 0, dominated_seen = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const VoteSystem system = random_vote_system(rng, 5 + rng.below(3));
    const bool self_dual = is_self_dual(system);
    const double at_03 = ppc_exact(system, 0.3);
    const double at_07 = ppc_exact(system, 0.7);
    if (self_dual) {
      ++self_dual_seen;
      EXPECT_NEAR(at_03, at_07, 1e-9) << system.name();
    } else {
      ++dominated_seen;
      // Not-self-dual systems are harder to certify dead than alive (or
      // vice versa); equality would be a coincidence we do not assert
      // either way, but Fact 2.3(2) must fail:
      const double f03 = failure_probability_exact(system, 0.3);
      const double f07 = failure_probability_exact(system, 0.7);
      EXPECT_GT(std::abs(f03 + f07 - 1.0), 1e-12) << system.name();
    }
  }
  // The sampler should have produced both kinds; if not, loosen it.
  EXPECT_GT(self_dual_seen, 0);
  EXPECT_GT(dominated_seen, 0);
}

TEST(CrossEngine, EveryStrategyDominatesTheOptimum) {
  Rng rng(555);
  EngineOptions options;
  options.trials = 4000;
  options.validate_witnesses = true;
  options.threads = 1;
  options.seed = 555;
  for (int trial = 0; trial < 6; ++trial) {
    const VoteSystem system = random_vote_system(rng, 6);
    const double optimum = ppc_exact(system, 0.5);
    const GreedyCandidateProbe greedy(system);
    const RandomOrderProbe random_order(system);
    const auto greedy_mean =
        estimate_ppc(system, greedy, 0.5, options).mean();
    const auto random_mean =
        estimate_ppc(system, random_order, 0.5, options).mean();
    EXPECT_GE(greedy_mean, optimum - 0.15) << system.name();
    EXPECT_GE(random_mean, optimum - 0.15) << system.name();
  }
}

TEST(CrossEngine, DecisionTreeMatchesDpOnRandomCoteries) {
  Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    const VoteSystem system = random_vote_system(rng, 5 + rng.below(2));
    for (double p : {0.25, 0.5}) {
      const auto tree = optimal_ppc_tree(system, p);
      EXPECT_NEAR(tree->expected_depth(p), ppc_exact(system, p), 1e-12)
          << system.name() << " p=" << p;
      EXPECT_LE(tree->depth(), system.universe_size());
      // The extracted tree must decide the true state on every coloring.
      const std::size_t n = system.universe_size();
      for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
        const Coloring coloring(n, ElementSet::from_mask(n, mask));
        const auto [color, probes] = tree->evaluate(coloring);
        EXPECT_EQ(color == Color::kGreen,
                  system.contains_quorum(coloring.greens()))
            << system.name() << " mask=" << mask;
      }
    }
  }
}

TEST(CrossEngine, AvailabilityRelationsOnRandomCoteries) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const VoteSystem system = random_vote_system(rng, 5 + rng.below(4));
    // F is monotone nondecreasing in p for every monotone system.
    double previous = -1.0;
    for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      const double f = failure_probability_exact(system, p);
      EXPECT_GE(f, previous - 1e-12) << system.name();
      previous = f;
    }
    if (is_self_dual(system)) {
      EXPECT_NEAR(failure_probability_exact(system, 0.5), 0.5, 1e-12)
          << system.name();
    }
  }
}

}  // namespace
}  // namespace qps
