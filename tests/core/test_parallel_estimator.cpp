#include "core/engine/parallel_estimator.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/algorithms/probe_maj.h"
#include "core/algorithms/random_order.h"
#include "core/estimator.h"
#include "quorum/majority.h"

namespace qps {
namespace {

// A deliberately broken strategy for testing witness validation under
// parallel runs: claims the first element alone is a green quorum.
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

EngineOptions base_options(std::size_t trials, std::size_t threads) {
  EngineOptions options;
  options.trials = trials;
  options.threads = threads;
  options.batch_size = 256;
  options.seed = 42;
  return options;
}

TEST(ParallelEstimator, MeanIsBitIdenticalAcrossThreadCounts) {
  const MajoritySystem maj(21);
  const ProbeMaj strategy(maj);
  const auto baseline = ParallelEstimator(base_options(20000, 1))
                            .estimate_ppc(maj, strategy, 0.4);
  for (std::size_t threads : {2u, 4u, 8u}) {
    const auto stats = ParallelEstimator(base_options(20000, threads))
                           .estimate_ppc(maj, strategy, 0.4);
    EXPECT_EQ(stats.count(), baseline.count()) << threads << " threads";
    EXPECT_EQ(stats.mean(), baseline.mean()) << threads << " threads";
    EXPECT_EQ(stats.variance(), baseline.variance()) << threads << " threads";
    EXPECT_EQ(stats.min(), baseline.min()) << threads << " threads";
    EXPECT_EQ(stats.max(), baseline.max()) << threads << " threads";
  }
}

TEST(ParallelEstimator, RandomizedStrategyIsAlsoDeterministic) {
  const MajoritySystem maj(15);
  const RandomOrderProbe strategy(maj);
  const auto a = ParallelEstimator(base_options(8000, 1))
                     .estimate_ppc(maj, strategy, 0.5);
  const auto b = ParallelEstimator(base_options(8000, 4))
                     .estimate_ppc(maj, strategy, 0.5);
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
}

TEST(ParallelEstimator, DifferentSeedsGiveDifferentSamples) {
  const MajoritySystem maj(21);
  const ProbeMaj strategy(maj);
  auto options = base_options(4000, 2);
  const auto a = ParallelEstimator(options).estimate_ppc(maj, strategy, 0.5);
  options.seed = 43;
  const auto b = ParallelEstimator(options).estimate_ppc(maj, strategy, 0.5);
  EXPECT_NE(a.mean(), b.mean());
}

TEST(ParallelEstimator, EarlyStopHonorsTargetSem) {
  const MajoritySystem maj(21);
  const ProbeMaj strategy(maj);
  auto options = base_options(200000, 4);
  options.target_sem = 0.05;
  options.min_trials = 512;
  const auto stats =
      ParallelEstimator(options).estimate_ppc(maj, strategy, 0.5);
  EXPECT_LT(stats.count(), 200000u);     // stopped before the full budget
  EXPECT_GE(stats.count(), 512u);        // but not before min_trials
  EXPECT_LE(stats.sem(), 0.05);          // and the target is met
  // The stop point is a whole number of batches.
  EXPECT_EQ(stats.count() % 256, 0u);
}

TEST(ParallelEstimator, EarlyStopIsDeterministicAcrossThreadCounts) {
  const MajoritySystem maj(21);
  const ProbeMaj strategy(maj);
  auto options = base_options(200000, 1);
  options.target_sem = 0.05;
  options.min_trials = 512;
  const auto a = ParallelEstimator(options).estimate_ppc(maj, strategy, 0.5);
  options.threads = 4;
  const auto b = ParallelEstimator(options).estimate_ppc(maj, strategy, 0.5);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
}

TEST(ParallelEstimator, ZeroTargetRunsFullBudget) {
  const MajoritySystem maj(5);
  const ProbeMaj strategy(maj);
  const auto stats = ParallelEstimator(base_options(5000, 4))
                         .estimate_ppc(maj, strategy, 0.5);
  EXPECT_EQ(stats.count(), 5000u);
}

TEST(ParallelEstimator, ValidationThrowsUnderParallelRuns) {
  const MajoritySystem maj(5);
  const BrokenStrategy broken;
  auto options = base_options(4096, 4);
  options.validate_witnesses = true;
  EXPECT_THROW(ParallelEstimator(options).estimate_ppc(maj, broken, 0.5),
               std::logic_error);
}

TEST(ParallelEstimator, FixedColoringMatchesSequentialEstimator) {
  const MajoritySystem maj(5);
  const ProbeMaj strategy(maj);
  const Coloring c(5, ElementSet(5, {0, 1, 2}));
  const auto stats = ParallelEstimator(base_options(1000, 4))
                         .expected_probes_on(maj, strategy, c);
  // Deterministic strategy on a fixed coloring: zero variance, mean 3.
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.count(), 1000u);
}

TEST(ParallelEstimator, PartialFinalBatchCoversExactBudget) {
  const MajoritySystem maj(5);
  const ProbeMaj strategy(maj);
  auto options = base_options(1000, 3);
  options.batch_size = 300;  // 300+300+300+100
  const auto stats =
      ParallelEstimator(options).estimate_ppc(maj, strategy, 0.5);
  EXPECT_EQ(stats.count(), 1000u);
}

TEST(ParallelEstimator, RejectsBadOptions) {
  EngineOptions zero_trials;
  zero_trials.trials = 0;
  EXPECT_THROW(ParallelEstimator{zero_trials}, std::invalid_argument);
  EngineOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(ParallelEstimator{zero_batch}, std::invalid_argument);
  EngineOptions negative_sem;
  negative_sem.target_sem = -1.0;
  EXPECT_THROW(ParallelEstimator{negative_sem}, std::invalid_argument);
}

TEST(ParallelEstimator, RefusesABudgetBeyondTheExactMomentsBound) {
  // Checked once, at construction: the largest exact budget is accepted.
  EngineOptions largest;
  largest.trials = CountMoments::kMaxCount;
  EXPECT_NO_THROW(ParallelEstimator{largest});
  EngineOptions too_many;
  too_many.trials = CountMoments::kMaxCount + 1;
  EXPECT_THROW(ParallelEstimator{too_many}, std::invalid_argument);
}

TEST(ParallelEstimator, EngineBackedApiOverloadsAgree) {
  const MajoritySystem maj(9);
  const ProbeMaj strategy(maj);
  const auto options = base_options(2048, 2);
  const auto direct =
      ParallelEstimator(options).estimate_ppc(maj, strategy, 0.5);
  const auto via_api = estimate_ppc(maj, strategy, 0.5, options);
  EXPECT_EQ(direct.mean(), via_api.mean());
  EXPECT_EQ(direct.count(), via_api.count());
}

TEST(ParallelEstimator, EngineBackedWorstCaseSearchFindsHardMajInput) {
  const MajoritySystem maj(5);
  const ProbeMaj strategy(maj);
  Rng rng(3);
  auto options = base_options(8, 2);
  options.batch_size = 4;
  const auto result =
      worst_case_search(maj, strategy, std::nullopt, 200, rng, options);
  EXPECT_EQ(result.expected_probes, 5.0);
}

TEST(RunningStatsMerge, MatchesSequentialAccumulation) {
  RunningStats all, left, right;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_real(-5.0, 5.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStatsMerge, EmptySidesAreIdentity) {
  RunningStats stats, empty;
  stats.add(1.0);
  stats.add(3.0);
  RunningStats copy = stats;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), 2u);
  EXPECT_DOUBLE_EQ(copy.mean(), 2.0);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
  EXPECT_DOUBLE_EQ(empty.max(), 3.0);
}

TEST(RngStreams, ForStreamIsAPureFunction) {
  Rng a = Rng::for_stream(123, 5);
  Rng b = Rng::for_stream(123, 5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStreams, DistinctStreamsDiffer) {
  Rng a = Rng::for_stream(123, 0);
  Rng b = Rng::for_stream(123, 1);
  bool differs = false;
  for (int i = 0; i < 16 && !differs; ++i)
    differs = a.next_u64() != b.next_u64();
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace qps
