// The generic candidate-counting baseline ([4,11]-style heuristic).
#include "core/algorithms/greedy.h"

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/witness.h"
#include "quorum/crumbling_wall.h"
#include "quorum/majority.h"
#include "quorum/wheel.h"

namespace qps {
namespace {

TEST(Greedy, FindsGreenQuorumOnAllGreen) {
  const MajoritySystem maj(5);
  const GreedyCandidateProbe greedy(maj);
  Rng rng(1);
  const Coloring c(5, ElementSet::full(5));
  ProbeSession s(c);
  const Witness w = greedy.run(s, rng);
  EXPECT_EQ(w.color, Color::kGreen);
  EXPECT_EQ(s.probe_count(), 3u);  // threshold probes suffice
}

TEST(Greedy, FindsRedTransversalOnAllRed) {
  const MajoritySystem maj(5);
  const GreedyCandidateProbe greedy(maj);
  Rng rng(1);
  const Coloring c(5);
  ProbeSession s(c);
  const Witness w = greedy.run(s, rng);
  EXPECT_EQ(w.color, Color::kRed);
  EXPECT_EQ(s.probe_count(), 3u);  // 3 reds kill every 3-of-5 quorum
}

TEST(Greedy, PrefersTheWheelHub) {
  // The hub appears in n-1 of the n quorums; greedy probes it first.
  const WheelSystem wheel(6);
  const GreedyCandidateProbe greedy(wheel);
  Rng rng(1);
  const Coloring c(6, ElementSet::full(6));
  ProbeSession s(c);
  const Witness w = greedy.run(s, rng);
  EXPECT_EQ(w.color, Color::kGreen);
  EXPECT_TRUE(s.was_probed(WheelSystem::kHub));
  EXPECT_EQ(s.probe_count(), 2u);  // hub + one rim spoke
}

TEST(Greedy, ComparableToProbeCwOnSmallWalls) {
  // On a small wall at p = 1/2, the generic heuristic should be within a
  // factor ~2 of the structured algorithm (it is not expected to win).
  const CrumblingWall wall({1, 2, 3});
  const GreedyCandidateProbe greedy(wall);
  EngineOptions options;
  options.trials = 20000;
  options.validate_witnesses = true;
  options.threads = 1;
  options.seed = 11;
  const auto stats = estimate_ppc(wall, greedy, 0.5, options);
  EXPECT_LT(stats.mean(), 6.0);
  EXPECT_GE(stats.mean(), 2.0);
}

TEST(Greedy, HonorsProbesAlreadyOnTheSession) {
  // A partially probed session is part of run()'s contract: pre-existing
  // probes must count toward both certificates.
  const MajoritySystem maj(5);
  const GreedyCandidateProbe greedy(maj);
  Rng rng(4);

  // Pre-probe the three reds: they already form a transversal, so the run
  // must certify red without any further probes.
  const Coloring mostly_red(5, ElementSet(5, {3, 4}));
  ProbeSession red_session(mostly_red);
  red_session.probe(0);
  red_session.probe(1);
  red_session.probe(2);
  const Witness red = greedy.run(red_session, rng);
  EXPECT_EQ(red.color, Color::kRed);
  EXPECT_EQ(red_session.probe_count(), 3u);

  // Pre-probe a full green quorum: certify green with no further probes.
  const Coloring mostly_green(5, ElementSet(5, {0, 1, 2}));
  ProbeSession green_session(mostly_green);
  green_session.probe(0);
  green_session.probe(1);
  green_session.probe(2);
  const Witness green = greedy.run(green_session, rng);
  EXPECT_EQ(green.color, Color::kGreen);
  EXPECT_EQ(green_session.probe_count(), 3u);
}

TEST(Greedy, NeverExceedsUniverseSize) {
  const MajoritySystem maj(7);
  const GreedyCandidateProbe greedy(maj);
  Rng rng(3);
  for (std::uint64_t mask = 0; mask < 128; mask += 7) {
    const Coloring c(7, ElementSet::from_mask(7, mask));
    ProbeSession s(c);
    greedy.run(s, rng);
    EXPECT_LE(s.probe_count(), 7u);
  }
}

}  // namespace
}  // namespace qps
