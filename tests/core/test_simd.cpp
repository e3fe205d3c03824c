// Lane-width layer (core/engine/simd.h): table resolution, the strided
// multi-word transpose, and the word-boundary property matrix -- every
// batchable strategy x family at n = 64/65/127/128/129 must be
// bit-identical to the engine's scalar path (run_lane on the same
// lane-major choices for randomized strategies) at both shipped widths
// (W = 1 and W = 4), including partial final blocks, partial final lane
// words, and the all-dead / all-live colorings.
#include "core/engine/simd.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/algorithms/random_order.h"
#include "core/coloring.h"
#include "core/engine/batch_kernel.h"
#include "core/engine/parallel_estimator.h"
#include "core/engine/trial_workspace.h"
#include "core/obs/metrics.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"
#include "tests/core/scalar_lane_trials.h"

namespace qps {
namespace {

TEST(SimdDispatch, FallbackTablesAreAlwaysAvailable) {
  // kAuto is the production W = 4 table; kOff is the W = 1 reference.
  const SimdKernels& automatic = resolve_simd_kernels(SimdIsa::kAuto);
  const SimdKernels& portable = resolve_simd_kernels(SimdIsa::kPortable);
  EXPECT_EQ(&automatic, &portable);
  EXPECT_EQ(automatic.isa, SimdIsa::kPortable);
  EXPECT_EQ(automatic.width, 4u);
  const SimdKernels& off = resolve_simd_kernels(SimdIsa::kOff);
  EXPECT_EQ(off.isa, SimdIsa::kOff);
  EXPECT_EQ(off.width, 1u);
}

TEST(StridedTranspose, MatchesTheBitwiseDefinitionAcrossWordBoundaries) {
  // element_words[e*W + k] bit t must equal row (64k + t)'s bit e, with
  // lanes at and beyond trial_count zeroed -- for universes straddling
  // every word boundary and for partial final lane words.
  Rng rng(77);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    const std::size_t stride = (n + 63) / 64;
    for (const std::size_t lane_words : {1u, 2u, 4u, 8u}) {
      const std::size_t cap = 64 * lane_words;
      for (std::size_t count : {std::size_t{1}, std::size_t{17},
                                std::size_t{64}, cap - 5, cap}) {
        if (count > cap || count < 1) continue;
        std::vector<std::uint64_t> masks(count * stride);
        sample_iid_coloring_words(masks.data(), count, n, 0.5, rng);
        std::vector<std::uint64_t> words(n * lane_words, ~0ULL);  // stale
        transpose_coloring_words_strided(masks.data(), count, n, lane_words,
                                         words.data());
        for (std::size_t e = 0; e < n; ++e) {
          for (std::size_t lane = 0; lane < cap; ++lane) {
            const std::uint64_t got =
                (words[e * lane_words + lane / 64] >> (lane % 64)) & 1ULL;
            const std::uint64_t want =
                lane < count
                    ? (masks[lane * stride + e / 64] >> (e % 64)) & 1ULL
                    : 0ULL;
            ASSERT_EQ(got, want) << "n=" << n << " W=" << lane_words
                                 << " count=" << count << " e=" << e
                                 << " lane=" << lane;
          }
        }
      }
    }
  }
}

TEST(StridedTranspose, RejectsBadArguments) {
  std::uint64_t mask = 1, out[64];
  EXPECT_THROW(transpose_coloring_words_strided(&mask, 1, 0, 1, out),
               std::invalid_argument);
  EXPECT_THROW(transpose_coloring_words_strided(&mask, 1, 1, 0, out),
               std::invalid_argument);
  EXPECT_THROW(transpose_coloring_words_strided(&mask, 65, 1, 1, out),
               std::invalid_argument);
}

struct Case {
  std::string label;
  std::shared_ptr<const QuorumSystem> system;
  std::shared_ptr<const ProbeStrategy> strategy;
};

/// Every batchable strategy on every paper family that can sit at or just
/// across the 64-element word boundary.
std::vector<Case> boundary_cases() {
  std::vector<Case> cases;
  const auto add = [&](std::string label,
                       std::shared_ptr<const QuorumSystem> system,
                       std::shared_ptr<const ProbeStrategy> strategy) {
    cases.push_back({std::move(label), std::move(system), std::move(strategy)});
  };
  for (const std::size_t n : {65u, 127u, 129u}) {  // Maj needs odd n
    auto maj = std::make_shared<MajoritySystem>(n);
    add("Probe_Maj/Maj" + std::to_string(n), maj,
        std::make_shared<ProbeMaj>(*maj));
    add("R_Probe_Maj/Maj" + std::to_string(n), maj,
        std::make_shared<RProbeMaj>(*maj));
    add("Random_Order/Maj" + std::to_string(n), maj,
        std::make_shared<RandomOrderProbe>(*maj));
  }
  auto tree = std::make_shared<TreeSystem>(6);  // n = 127
  add("Probe_Tree/Tree6", tree, std::make_shared<ProbeTree>(*tree));
  add("R_Probe_Tree/Tree6", tree, std::make_shared<RProbeTree>(*tree));
  auto hqs = std::make_shared<HQSystem>(4);  // n = 81
  add("Probe_HQS/Hqs4", hqs, std::make_shared<ProbeHQS>(*hqs));
  add("R_Probe_HQS/Hqs4", hqs, std::make_shared<RProbeHQS>(*hqs));
  // IR_Probe_HQS at every height from one gate to n = 243, below and
  // across the word boundary: h = 1 is plain eval_node, h = 2 the first
  // peek, and h >= 3 peeks inside peeked and completed children.
  for (const std::size_t h : {1u, 2u, 3u, 4u, 5u}) {
    auto ir_hqs = std::make_shared<HQSystem>(h);
    add("IR_Probe_HQS/Hqs" + std::to_string(h), ir_hqs,
        std::make_shared<IRProbeHQS>(*ir_hqs));
  }
  for (const std::size_t n : {64u, 65u, 128u, 129u}) {  // wheel: any n
    auto wall = std::make_shared<CrumblingWall>(CrumblingWall::wheel(n));
    add("Probe_CW/Wheel" + std::to_string(n), wall,
        std::make_shared<ProbeCW>(*wall));
    add("R_Probe_CW/Wheel" + std::to_string(n), wall,
        std::make_shared<RProbeCW>(*wall));
  }
  return cases;
}

TEST(SimdBoundary, EveryIsaMatchesScalarPerLaneAcrossWordBoundaries) {
  // p = 0.0 / 1.0 are the all-live / all-dead colorings; count = 13 leaves
  // a partial first lane word, count = lane_capacity() fills every word.
  // One block per case is reconfigured across widths, which also exercises
  // configure()'s invalidation path.
  std::uint64_t config_seed = 9000;
  for (const Case& c : boundary_cases()) {
    const std::size_t n = c.system->universe_size();
    ASSERT_TRUE(c.strategy->supports_batch(n)) << c.label;
    const std::size_t stride = (n + 63) / 64;
    TrialWorkspace ws(n);
    Rng sample_rng(42);
    BatchTrialBlock block;
    for (const SimdIsa isa : {SimdIsa::kOff, SimdIsa::kPortable}) {
      const SimdKernels& kernels = resolve_simd_kernels(isa);
      block.configure(kernels, n);
      for (const std::size_t count : {block.lane_capacity(), std::size_t{13}}) {
        for (const double p : {0.0, 0.4, 1.0}) {
          // Odd configs bind the engine's lane words, even ones mask rows.
          std::vector<std::uint64_t> masks(count * stride);
          std::vector<std::uint64_t> lanes((count + 63) / 64 * n);
          sample_iid_lane_words(lanes.data(), count, n, p, sample_rng);
          transpose_lane_words_to_rows(lanes.data(), count, n, 1, n,
                                       masks.data());
          if (config_seed % 2 == 1)
            block.load_lanes(lanes.data(), count);
          else
            block.load(masks.data(), count);
          ++config_seed;
          Rng batch_rng(config_seed);
          c.strategy->run_batch(block, batch_rng);
          Rng scalar_rng(config_seed);
          const std::vector<std::uint32_t> want = scalar_lane_counts(
              *c.strategy, ws, masks.data(), count, scalar_rng);
          for (std::size_t t = 0; t < count; ++t)
            ASSERT_EQ(block.probe_count(t), want[t])
                << c.label << " isa=" << simd_isa_name(isa)
                << " count=" << count << " p=" << p << " lane=" << t;
        }
      }
    }
  }
}

TEST(SimdBoundary, EngineStatisticsAreIsaInvariantAboveSixtyFourElements) {
  // Full engine runs (multi-word sampler + bit-sliced execution) must
  // return the scalar path's statistics exactly, on randomized strategies
  // so the lane-major shuffles are covered too.
  const MajoritySystem maj(65);
  const RandomOrderProbe random_order(maj);
  const CrumblingWall wall = CrumblingWall::wheel(128);
  const RProbeCW r_probe_cw(wall);
  const struct {
    const QuorumSystem* system;
    const ProbeStrategy* strategy;
  } cases[] = {{&maj, &random_order}, {&wall, &r_probe_cw}};
  for (const auto& c : cases) {
    EngineOptions options;
    options.trials = 2000;
    options.batch_size = 256;
    options.threads = 2;
    options.seed = 7;
    const RunningStats sliced =
        ParallelEstimator(options).estimate_ppc(*c.system, *c.strategy, 0.45);
    options.validate_witnesses = true;  // the scalar per-trial loop
    const RunningStats scalar =
        ParallelEstimator(options).estimate_ppc(*c.system, *c.strategy, 0.45);
    EXPECT_EQ(sliced.count(), scalar.count()) << c.strategy->name();
    EXPECT_EQ(sliced.mean(), scalar.mean()) << c.strategy->name();
    EXPECT_EQ(sliced.variance(), scalar.variance()) << c.strategy->name();
    EXPECT_EQ(sliced.min(), scalar.min()) << c.strategy->name();
    EXPECT_EQ(sliced.max(), scalar.max()) << c.strategy->name();
  }
}

TEST(SimdBoundary, BitSlicedEngineRunsCountSimdBlocks) {
  obs::Counter& blocks =
      obs::MetricsRegistry::instance().counter("engine/simd_blocks");
  const std::uint64_t before = blocks.value();
  const MajoritySystem maj(65);
  const ProbeMaj strategy(maj);
  EngineOptions options;
  options.trials = 512;
  options.batch_size = 256;
  options.threads = 1;
  (void)ParallelEstimator(options).estimate_ppc(maj, strategy, 0.5);
  EXPECT_GT(blocks.value(), before);
}

}  // namespace
}  // namespace qps
