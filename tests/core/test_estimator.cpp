#include "core/estimator.h"

#include <gtest/gtest.h>

#include "core/algorithms/probe_maj.h"
#include "quorum/majority.h"

namespace qps {
namespace {

// A deliberately broken strategy for testing witness validation: claims
// the first element alone is a green quorum.
class BrokenStrategy final : public ProbeStrategy {
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

EngineOptions single_thread(std::size_t trials, std::uint64_t seed) {
  EngineOptions options;
  options.trials = trials;
  options.threads = 1;
  options.seed = seed;
  return options;
}

TEST(Estimator, EstimatePpcReturnsTrialsStats) {
  const MajoritySystem maj(5);
  const ProbeMaj strategy(maj);
  const auto stats = estimate_ppc(maj, strategy, 0.5, single_thread(500, 1));
  EXPECT_EQ(stats.count(), 500u);
  EXPECT_GE(stats.min(), 3.0);  // at least threshold probes
  EXPECT_LE(stats.max(), 5.0);
}

TEST(Estimator, ValidationCatchesBrokenStrategy) {
  const MajoritySystem maj(5);
  const BrokenStrategy broken;
  auto options = single_thread(10, 1);
  options.validate_witnesses = true;
  EXPECT_THROW(estimate_ppc(maj, broken, 0.5, options), std::logic_error);
}

TEST(Estimator, NoValidationLetsBrokenStrategyRun) {
  const MajoritySystem maj(5);
  const BrokenStrategy broken;
  auto options = single_thread(10, 1);
  options.validate_witnesses = false;
  EXPECT_NO_THROW(estimate_ppc(maj, broken, 0.5, options));
}

TEST(Estimator, FixedColoringExpectation) {
  const MajoritySystem maj(5);
  const ProbeMaj strategy(maj);
  // Deterministic strategy on a fixed coloring: zero variance.
  const Coloring c(5, ElementSet(5, {0, 1, 2}));
  const auto stats =
      expected_probes_on(maj, strategy, c, single_thread(50, 2));
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(Estimator, WorstCaseSearchFindsHardMajInput) {
  // For ProbeMaj (sequential), the worst inputs need n probes; the hill
  // climb should find a coloring costing the full n.
  const MajoritySystem maj(5);
  const ProbeMaj strategy(maj);
  Rng rng(3);
  const auto result = worst_case_search(maj, strategy, std::nullopt, 200, rng,
                                        single_thread(1, 3));
  EXPECT_EQ(result.expected_probes, 5.0);
}

TEST(Estimator, WorstCaseSearchRespectsSeed) {
  const MajoritySystem maj(5);
  const ProbeMaj strategy(maj);
  Rng rng(4);
  const Coloring seed(5, ElementSet(5, {0, 2}));  // already worst (5 probes)
  const auto result =
      worst_case_search(maj, strategy, seed, 10, rng, single_thread(1, 4));
  EXPECT_GE(result.expected_probes, 5.0 - 1e-12);
}

TEST(Estimator, RejectsZeroTrials) {
  const MajoritySystem maj(3);
  const ProbeMaj strategy(maj);
  EXPECT_THROW(estimate_ppc(maj, strategy, 0.5, single_thread(0, 5)),
               std::invalid_argument);
}

}  // namespace
}  // namespace qps
