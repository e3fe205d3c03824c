// Bit-sliced batch kernel (core/engine/batch_kernel.h): per-trial probe
// counts from run_batch must be bit-identical to the engine's scalar path
// -- run_with for deterministic scans, run_lane on the same lane-major
// choices for the randomized-order strategies -- for every eligible
// strategy x family, for full and partial lane blocks, for the
// single-word and wide (portable W=4) kernel tables, and through the
// engine for any thread count.  The plane fold that reduces a block to
// exact moments must equal the per-lane gather fed through
// CountMoments::add.  The n > 64 boundary matrix lives in test_simd.cpp,
// the lane draws' own properties in test_lane_draws.cpp.
#include "core/engine/batch_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithms/greedy.h"
#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/algorithms/random_order.h"
#include "core/engine/trial_workspace.h"
#include "core/estimator.h"
#include "core/sweep/sweep_spec.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"
#include "tests/core/scalar_lane_trials.h"
#include "util/stats.h"

namespace qps {
namespace {

/// 64 per-lane counters stored as bit-planes: plane b holds bit b of every
/// lane's counter.  Counts up to 64, hence 7 planes.  The single-word
/// reference model of the kernels' in-kernel tallies (ripple-carry add,
/// plane-fold equality), kept here as a differential oracle.
class LaneTally {
 public:
  static constexpr std::size_t kPlanes = 7;

  /// Increments the counter of every lane set in `lanes` (ripple-carry add
  /// of a 1-bit across the planes).
  void add(std::uint64_t lanes) {
    std::uint64_t carry = lanes;
    for (std::size_t b = 0; b < kPlanes && carry != 0; ++b) {
      const std::uint64_t t = planes_[b] & carry;
      planes_[b] ^= carry;
      carry = t;
    }
  }

  /// The lanes whose counter currently equals `value` (a 7-word fold).
  std::uint64_t equals(std::size_t value) const {
    std::uint64_t eq = ~0ULL;
    for (std::size_t b = 0; b < kPlanes; ++b)
      eq &= ((value >> b) & 1U) != 0 ? planes_[b] : ~planes_[b];
    return eq;
  }

  /// One lane's counter, gathered from the planes.
  std::uint32_t get(std::size_t lane) const {
    std::uint32_t value = 0;
    for (std::size_t b = 0; b < kPlanes; ++b)
      value |= static_cast<std::uint32_t>((planes_[b] >> lane) & 1ULL) << b;
    return value;
  }

  void clear() { planes_.fill(0); }

 private:
  std::array<std::uint64_t, kPlanes> planes_{};
};

void expect_same_moments(const CountMoments& got, const CountMoments& want,
                         const std::string& label) {
  EXPECT_EQ(got.count(), want.count()) << label;
  EXPECT_EQ(got.sum(), want.sum()) << label;
  EXPECT_TRUE(got.sum_squares() == want.sum_squares()) << label;
  EXPECT_EQ(got.min(), want.min()) << label;
  EXPECT_EQ(got.max(), want.max()) << label;
}

TEST(LaneTally, AddEqualsAndGetAgreeWithScalarCounters) {
  LaneTally tally;
  std::uint32_t reference[64] = {};
  Rng rng(11);
  for (int step = 0; step < 60; ++step) {
    const std::uint64_t lanes = rng.next_u64();
    tally.add(lanes);
    for (std::size_t lane = 0; lane < 64; ++lane)
      if ((lanes >> lane) & 1ULL) ++reference[lane];
    for (std::size_t lane = 0; lane < 64; ++lane)
      ASSERT_EQ(tally.get(lane), reference[lane]) << step << " " << lane;
    const std::uint32_t probe_value = reference[step];
    std::uint64_t expected_eq = 0;
    for (std::size_t lane = 0; lane < 64; ++lane)
      if (reference[lane] == probe_value) expected_eq |= 1ULL << lane;
    ASSERT_EQ(tally.equals(probe_value), expected_eq) << step;
  }
  tally.clear();
  for (std::size_t lane = 0; lane < 64; ++lane) EXPECT_EQ(tally.get(lane), 0u);
}

TEST(BatchTrialBlock, LoadTransposesAndZeroesUnusedLanes) {
  Rng rng(5);
  std::vector<std::uint64_t> masks(17);
  sample_iid_coloring_words(masks.data(), masks.size(), 40, 0.5, rng);
  BatchTrialBlock block;
  block.configure(resolve_simd_kernels(SimdIsa::kOff), 40);
  EXPECT_EQ(block.width(), 1u);
  EXPECT_EQ(block.lane_capacity(), 64u);
  block.load(masks.data(), masks.size());
  EXPECT_EQ(block.trial_count(), 17u);
  EXPECT_EQ(block.universe_size(), 40u);
  const BlockView view = block.view();
  EXPECT_EQ(view.active[0], (1ULL << 17) - 1);
  for (Element e = 0; e < 40; ++e)
    for (std::size_t t = 0; t < 64; ++t)
      ASSERT_EQ((view.greens[e] >> t) & 1ULL,
                t < masks.size() ? (masks[t] >> e) & 1ULL : 0ULL)
          << "e=" << e << " t=" << t;
}

TEST(BatchTrialBlock, LoadLanesMatchesLoadedRows) {
  // load_lanes() must leave the same element rows (unused lanes zero) as
  // load() of the matching per-trial rows -- across n > 64 and a partial
  // last lane word.
  for (const std::size_t n : {5u, 63u, 65u, 127u}) {
    const std::size_t stride = (n + 63) / 64;
    for (const SimdIsa isa : {SimdIsa::kOff, SimdIsa::kPortable}) {
      BatchTrialBlock lane_block, row_block;
      lane_block.configure(resolve_simd_kernels(isa), n);
      row_block.configure(resolve_simd_kernels(isa), n);
      const std::size_t w = lane_block.width();
      for (const std::size_t count :
           {std::size_t{1}, std::size_t{70}, lane_block.lane_capacity()}) {
        if (count > lane_block.lane_capacity()) continue;
        Rng rng(n + count);
        std::vector<std::uint64_t> lanes((count + 63) / 64 * n);
        sample_iid_lane_words(lanes.data(), count, n, 0.5, rng);
        std::vector<std::uint64_t> rows(count * stride);
        transpose_lane_words_to_rows(lanes.data(), count, n, 1, n,
                                     rows.data());
        lane_block.load_lanes(lanes.data(), count);
        row_block.load(rows.data(), count);
        EXPECT_EQ(lane_block.group_count(), (count + 63) / 64);
        const BlockView from_lanes = lane_block.view();
        const BlockView from_rows = row_block.view();
        for (std::size_t i = 0; i < n * w; ++i)
          ASSERT_EQ(from_lanes.greens[i], from_rows.greens[i])
              << "n=" << n << " W=" << w << " count=" << count << " i=" << i;
        for (std::size_t k = 0; k < w; ++k)
          ASSERT_EQ(from_lanes.active[k], from_rows.active[k]);
      }
    }
  }
}

struct Case {
  std::string label;
  std::shared_ptr<const QuorumSystem> system;
  std::shared_ptr<const ProbeStrategy> strategy;
};

std::vector<Case> batch_cases() {
  std::vector<Case> cases;
  const auto add = [&](std::string label,
                       std::shared_ptr<const QuorumSystem> system,
                       std::shared_ptr<const ProbeStrategy> strategy) {
    cases.push_back({std::move(label), std::move(system), std::move(strategy)});
  };
  for (const std::size_t n : {1u, 5u, 21u, 63u}) {
    auto maj = std::make_shared<MajoritySystem>(n);
    add("Probe_Maj/Maj" + std::to_string(n), maj,
        std::make_shared<ProbeMaj>(*maj));
  }
  for (const std::size_t n : {21u, 63u}) {
    auto maj = std::make_shared<MajoritySystem>(n);
    add("R_Probe_Maj/Maj" + std::to_string(n), maj,
        std::make_shared<RProbeMaj>(*maj));
    add("Random_Order/Maj" + std::to_string(n), maj,
        std::make_shared<RandomOrderProbe>(*maj));
  }
  for (const std::size_t h : {0u, 2u, 5u}) {  // n = 1, 7, 63
    auto tree = std::make_shared<TreeSystem>(h);
    add("Probe_Tree/Tree" + std::to_string(h), tree,
        std::make_shared<ProbeTree>(*tree));
  }
  for (const std::size_t h : {2u, 5u}) {
    auto tree = std::make_shared<TreeSystem>(h);
    add("R_Probe_Tree/Tree" + std::to_string(h), tree,
        std::make_shared<RProbeTree>(*tree));
  }
  for (const std::size_t h : {1u, 2u, 3u}) {  // n = 3, 9, 27
    auto hqs = std::make_shared<HQSystem>(h);
    add("Probe_HQS/Hqs" + std::to_string(h), hqs,
        std::make_shared<ProbeHQS>(*hqs));
  }
  for (const std::size_t h : {2u, 3u}) {
    auto hqs = std::make_shared<HQSystem>(h);
    add("R_Probe_HQS/Hqs" + std::to_string(h), hqs,
        std::make_shared<RProbeHQS>(*hqs));
  }
  for (const std::size_t h : {1u, 2u, 3u}) {
    auto hqs = std::make_shared<HQSystem>(h);
    add("IR_Probe_HQS/Hqs" + std::to_string(h), hqs,
        std::make_shared<IRProbeHQS>(*hqs));
  }
  for (const std::size_t rows : {2u, 4u, 10u}) {  // n = 3, 10, 55
    auto wall = std::make_shared<CrumblingWall>(CrumblingWall::triang(rows));
    add("Probe_CW/Triang" + std::to_string(rows), wall,
        std::make_shared<ProbeCW>(*wall));
  }
  for (const std::size_t rows : {4u, 10u}) {
    auto wall = std::make_shared<CrumblingWall>(CrumblingWall::triang(rows));
    add("R_Probe_CW/Triang" + std::to_string(rows), wall,
        std::make_shared<RProbeCW>(*wall));
  }
  // The exactly-one-full-word boundary: wheel(64) is the only paper family
  // that can sit at n = 64.
  auto wheel = std::make_shared<CrumblingWall>(CrumblingWall::wheel(64));
  add("Probe_CW/Wheel64", wheel, std::make_shared<ProbeCW>(*wheel));
  add("R_Probe_CW/Wheel64", wheel, std::make_shared<RProbeCW>(*wheel));
  return cases;
}

TEST(BatchKernel, ProbeCountsMatchScalarRunWithPerLane) {
  // Both shipped kernel tables: kOff (W=1, the single-word shape) and
  // kPortable (W=4) -- the latter exercises multi-lane-word blocks and a
  // partial final lane word.  Randomized strategies draw their choices
  // lane-major, one group after another, so a scalar Rng seeded
  // identically replays their groups for run_lane.
  std::uint64_t config_seed = 1000;
  for (const Case& c : batch_cases()) {
    const std::size_t n = c.system->universe_size();
    ASSERT_TRUE(c.strategy->supports_batch(n)) << c.label;
    const std::size_t stride = (n + 63) / 64;
    TrialWorkspace ws(n);
    Rng sample_rng(20010826);
    for (const SimdIsa isa : {SimdIsa::kOff, SimdIsa::kPortable}) {
      const SimdKernels& kernels = resolve_simd_kernels(isa);
      BatchTrialBlock block;
      block.configure(kernels, n);
      for (const std::size_t count :
           {block.lane_capacity(), std::size_t{17}, std::size_t{1}}) {
        for (const double p : {0.1, 0.5, 0.9}) {
          // Odd configs bind the engine's lane words (load_lanes); even
          // ones bind per-trial rows (load).
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
          const std::vector<std::uint32_t> want =
              scalar_lane_counts(*c.strategy, ws, masks.data(), count,
                                 scalar_rng);
          CountMoments gathered;
          for (std::size_t t = 0; t < count; ++t) {
            ASSERT_EQ(block.probe_count(t), want[t])
                << c.label << " isa=" << simd_isa_name(isa)
                << " count=" << count << " p=" << p << " lane=" << t;
            gathered.add(block.probe_count(t));
          }
          CountMoments folded;
          block.fold_probe_counts(folded);
          expect_same_moments(folded, gathered, c.label);
          EXPECT_EQ(batch_rng.next_u64(), scalar_rng.next_u64()) << c.label;
        }
      }
    }
  }
}

TEST(BatchKernel, LoadAndLoadLanesGiveTheSameCountsOnTheSameTrials) {
  // run_batch after load() of trial-major rows (bench_micro's RandBatch
  // cases) must charge every lane what it charges after load_lanes() of
  // the same trials with the same rng: the lane draws never depend on how
  // the colorings arrived.
  for (const Case& c : batch_cases()) {
    const std::size_t n = c.system->universe_size();
    const std::size_t stride = (n + 63) / 64;
    const SimdKernels& kernels = resolve_simd_kernels(SimdIsa::kPortable);
    BatchTrialBlock rows_block, lanes_block;
    rows_block.configure(kernels, n);
    lanes_block.configure(kernels, n);
    for (const std::size_t count : {std::size_t{100}, std::size_t{256}}) {
      Rng sample_rng(n * 7 + count);
      std::vector<std::uint64_t> lanes((count + 63) / 64 * n);
      sample_iid_lane_words(lanes.data(), count, n, 0.4, sample_rng);
      std::vector<std::uint64_t> masks(count * stride);
      transpose_lane_words_to_rows(lanes.data(), count, n, 1, n,
                                   masks.data());
      rows_block.load(masks.data(), count);
      lanes_block.load_lanes(lanes.data(), count);
      Rng rows_rng(count);
      Rng lanes_rng(count);
      c.strategy->run_batch(rows_block, rows_rng);
      c.strategy->run_batch(lanes_block, lanes_rng);
      for (std::size_t t = 0; t < count; ++t)
        ASSERT_EQ(rows_block.probe_count(t), lanes_block.probe_count(t))
            << c.label << " count=" << count << " lane=" << t;
      EXPECT_EQ(rows_rng.next_u64(), lanes_rng.next_u64()) << c.label;
    }
  }
}

TEST(BatchKernel, TrialCountsDoNotDependOnTheTrialsThatFollow) {
  // Groups are drawn whole, lanes beyond the count included, so trial t's
  // choices -- and its probe count -- are the same whether the super-block
  // sequence stops at t+1 trials or runs on to 1024, on both paths.
  const std::size_t kTrials = 1024;
  for (const Case& c : batch_cases()) {
    const std::size_t n = c.system->universe_size();
    const std::size_t stride = (n + 63) / 64;
    Rng sample_rng(n);
    std::vector<std::uint64_t> lanes(kTrials / 64 * n);
    sample_iid_lane_words(lanes.data(), kTrials, n, 0.5, sample_rng);
    std::vector<std::uint64_t> masks(kTrials * stride);
    transpose_lane_words_to_rows(lanes.data(), kTrials, n, 1, n,
                                 masks.data());
    BatchTrialBlock block;
    block.configure(resolve_simd_kernels(SimdIsa::kPortable), n);
    const auto sliced_counts = [&](std::size_t count) {
      Rng rng(31);
      std::vector<std::uint32_t> counts;
      for (std::size_t off = 0; off < count; off += block.lane_capacity()) {
        const std::size_t lanes_here =
            std::min(block.lane_capacity(), count - off);
        block.load_lanes(lanes.data() + off / 64 * n, lanes_here);
        c.strategy->run_batch(block, rng);
        for (std::size_t t = 0; t < lanes_here; ++t)
          counts.push_back(block.probe_count(t));
      }
      return counts;
    };
    TrialWorkspace ws(n);
    const auto scalar_counts = [&](std::size_t count) {
      Rng rng(31);
      return scalar_lane_counts(*c.strategy, ws, masks.data(), count, rng);
    };
    const std::vector<std::uint32_t> all = sliced_counts(kTrials);
    ASSERT_EQ(scalar_counts(kTrials), all) << c.label;
    for (const std::size_t t : {0u, 1u, 63u, 64u, 200u, 255u, 256u, 700u}) {
      EXPECT_EQ(sliced_counts(t + 1)[t], all[t]) << c.label << " t=" << t;
      EXPECT_EQ(scalar_counts(t + 1)[t], all[t]) << c.label << " t=" << t;
    }
  }
}

/// Lane t's count gathered bit by bit from W-word planes: the definition
/// fold_probe_planes must agree with (BatchTrialBlock::probe_count's rule).
std::uint32_t gather_lane(const std::vector<std::uint64_t>& planes,
                          std::size_t plane_count, std::size_t width,
                          std::size_t lane) {
  std::uint32_t value = 0;
  for (std::size_t b = 0; b < plane_count; ++b)
    value |= static_cast<std::uint32_t>(
                 (planes[b * width + lane / 64] >> (lane % 64)) & 1ULL)
             << b;
  return value;
}

TEST(BatchKernel, FoldProbePlanesMatchesPerLaneGatherAndAdd) {
  // Random planes -- with bits set in inactive lanes, which the fold must
  // mask away -- for every lane width, 1..8 planes, and lane counts at the
  // word seams.  Plus a random, non-prefix active mask per shape.
  Rng rng(314159);
  for (const std::size_t width : {1u, 2u, 4u, 8u}) {
    const std::size_t cap = 64 * width;
    for (std::size_t plane_count = 1; plane_count <= 8; ++plane_count) {
      std::vector<std::size_t> lane_counts = {1, 63, 64, 65, cap - 1, cap};
      std::vector<std::vector<std::uint64_t>> actives;
      for (const std::size_t lanes : lane_counts) {
        if (lanes > cap) continue;
        std::vector<std::uint64_t> active(width, 0);
        for (std::size_t t = 0; t < lanes; ++t)
          active[t / 64] |= 1ULL << (t % 64);
        actives.push_back(std::move(active));
      }
      std::vector<std::uint64_t> sparse(width);
      for (auto& word : sparse) word = rng.next_u64() & rng.next_u64();
      actives.push_back(std::move(sparse));
      for (const auto& active : actives) {
        std::vector<std::uint64_t> planes(plane_count * width);
        for (auto& word : planes) word = rng.next_u64();
        CountMoments folded;
        fold_probe_planes(planes.data(), plane_count, active.data(), width,
                          folded);
        CountMoments gathered;
        for (std::size_t t = 0; t < cap; ++t)
          if ((active[t / 64] >> (t % 64)) & 1ULL)
            gathered.add(gather_lane(planes, plane_count, width, t));
        expect_same_moments(folded, gathered,
                            "W=" + std::to_string(width) +
                                " planes=" + std::to_string(plane_count) +
                                " lanes=" + std::to_string(gathered.count()));
      }
    }
  }
}

TEST(BatchKernel, FoldProbePlanesHandlesExtremeCounts) {
  // All-ones planes (every lane at the largest count), all-zero planes,
  // and an empty active mask, which must leave the accumulator untouched.
  const std::size_t width = 2;
  const std::size_t plane_count = 8;
  const std::vector<std::uint64_t> active = {~0ULL, 0x5ULL};
  const std::vector<std::uint64_t> ones(plane_count * width, ~0ULL);
  CountMoments full;
  fold_probe_planes(ones.data(), plane_count, active.data(), width, full);
  EXPECT_EQ(full.count(), 66u);
  EXPECT_EQ(full.min(), 255u);
  EXPECT_EQ(full.max(), 255u);
  EXPECT_EQ(full.sum(), 66u * 255u);
  EXPECT_TRUE(full.sum_squares() == 66u * 255u * 255u);
  const std::vector<std::uint64_t> zeros(plane_count * width, 0);
  CountMoments none;
  fold_probe_planes(zeros.data(), plane_count, active.data(), width, none);
  EXPECT_EQ(none.count(), 66u);
  EXPECT_EQ(none.min(), 0u);
  EXPECT_EQ(none.max(), 0u);
  const std::vector<std::uint64_t> idle(width, 0);
  CountMoments untouched;
  fold_probe_planes(ones.data(), plane_count, idle.data(), width, untouched);
  EXPECT_EQ(untouched.count(), 0u);
  EXPECT_EQ(untouched.stats().count(), 0u);
  // Counts of 2^29 and up could overflow one word's sum of squares.
  const std::vector<std::uint64_t> deep(30 * width, 0);
  EXPECT_THROW(fold_probe_planes(deep.data(), 30, active.data(), width, none),
               std::invalid_argument);
}

TEST(BatchKernel, RunBitSlicedTrialsMatchesScalarStatsAcrossBlockSeams) {
  // Three full super-blocks plus an 8-lane partial for each kernel width;
  // run_bit_sliced_trials must draw a randomized strategy's lane choices
  // group after group and fold every lane, so its exact integer moments
  // equal the scalar lane loop's per-trial adds and both leave the rng at
  // the same place.
  const MajoritySystem maj(63);
  const ProbeMaj det(maj);
  const RProbeMaj rnd(maj);
  for (const ProbeStrategy* strategy :
       {static_cast<const ProbeStrategy*>(&det),
        static_cast<const ProbeStrategy*>(&rnd)}) {
    for (const SimdIsa isa : {SimdIsa::kOff, SimdIsa::kPortable}) {
      const SimdKernels& kernels = resolve_simd_kernels(isa);
      const std::size_t trials = 3 * 64 * kernels.width + 8;
      Rng rng(99);
      std::vector<std::uint64_t> lanes((trials + 63) / 64 * 63);
      sample_iid_lane_words(lanes.data(), trials, 63, 0.5, rng);
      std::vector<std::uint64_t> masks(trials);
      transpose_lane_words_to_rows(lanes.data(), trials, 63, 1, 63,
                                   masks.data());

      CountMoments batch;
      BatchTrialBlock block;
      block.configure(kernels, 63);
      Rng batch_rng(4242);
      run_bit_sliced_trials(*strategy, block, lanes.data(), trials, 63,
                            batch_rng, batch);

      CountMoments scalar;
      TrialWorkspace ws(63);
      Rng scalar_rng(4242);
      for (const std::uint32_t count :
           scalar_lane_counts(*strategy, ws, masks.data(), trials, scalar_rng))
        scalar.add(count);
      expect_same_moments(batch, scalar,
                          strategy->name() + " " + simd_isa_name(isa));
      EXPECT_EQ(batch_rng.next_u64(), scalar_rng.next_u64());
    }
  }
}

EngineOptions engine_options(std::size_t threads) {
  EngineOptions options;
  options.trials = 5990;     // last batch is partial
  options.batch_size = 500;  // blocks of 64 end with a 52-lane partial
  options.threads = threads;
  options.seed = 42;
  return options;
}

/// The same options routed through the engine's scalar per-trial loop:
/// witness validation needs materialized witnesses, which only it builds.
EngineOptions scalar_loop(EngineOptions options) {
  options.validate_witnesses = true;
  return options;
}

void expect_same_stats(const RunningStats& a, const RunningStats& b,
                       const std::string& label) {
  ASSERT_EQ(a.count(), b.count()) << label;
  ASSERT_EQ(a.mean(), b.mean()) << label;
  ASSERT_EQ(a.variance(), b.variance()) << label;
  ASSERT_EQ(a.min(), b.min()) << label;
  ASSERT_EQ(a.max(), b.max()) << label;
}

TEST(BatchKernel, EngineBitSlicedIsBitIdenticalToScalarForEveryFamily) {
  for (const Case& c : batch_cases()) {
    for (const std::size_t threads : {1u, 4u}) {
      for (const double p : {0.3, 0.7}) {
        const RunningStats scalar =
            ParallelEstimator(scalar_loop(engine_options(threads)))
                .estimate_ppc(*c.system, *c.strategy, p);
        const RunningStats sliced =
            ParallelEstimator(engine_options(threads))
                .estimate_ppc(*c.system, *c.strategy, p);
        expect_same_stats(sliced, scalar, c.label);
      }
    }
  }
}

TEST(BatchKernel, EngineScalarMatchesBitSlicedForEveryStrategyAcrossSeams) {
  // Every batch strategy, with a batch size that is not a multiple of 64
  // (so every batch ends in a partial lane group and a partial super-block)
  // at universes on both sides of the word boundary: the scalar path's
  // transposed rows and the bit-sliced path's lane words are the same
  // trials, so the statistics agree exactly.
  std::vector<Case> cases;
  const auto add = [&](std::string label,
                       std::shared_ptr<const QuorumSystem> system,
                       std::shared_ptr<const ProbeStrategy> strategy) {
    cases.push_back({std::move(label), std::move(system), std::move(strategy)});
  };
  for (const std::size_t n : {5u, 63u, 65u, 127u}) {
    const std::string size = std::to_string(n);
    auto maj = std::make_shared<MajoritySystem>(n);
    add("Probe_Maj/Maj" + size, maj, std::make_shared<ProbeMaj>(*maj));
    add("R_Probe_Maj/Maj" + size, maj, std::make_shared<RProbeMaj>(*maj));
    add("Random_Order/Maj" + size, maj,
        std::make_shared<RandomOrderProbe>(*maj));
    auto wheel = std::make_shared<CrumblingWall>(CrumblingWall::wheel(n));
    add("Probe_CW/Wheel" + size, wheel, std::make_shared<ProbeCW>(*wheel));
    add("R_Probe_CW/Wheel" + size, wheel, std::make_shared<RProbeCW>(*wheel));
  }
  for (const std::size_t h : {5u, 6u}) {  // n = 63, 127
    auto tree = std::make_shared<TreeSystem>(h);
    add("Probe_Tree/Tree" + std::to_string(h), tree,
        std::make_shared<ProbeTree>(*tree));
    add("R_Probe_Tree/Tree" + std::to_string(h), tree,
        std::make_shared<RProbeTree>(*tree));
  }
  for (const std::size_t h : {1u, 4u}) {  // n = 3, 81: HQS has no n = 5..127
    auto hqs = std::make_shared<HQSystem>(h);
    add("Probe_HQS/Hqs" + std::to_string(h), hqs,
        std::make_shared<ProbeHQS>(*hqs));
    add("R_Probe_HQS/Hqs" + std::to_string(h), hqs,
        std::make_shared<RProbeHQS>(*hqs));
    add("IR_Probe_HQS/Hqs" + std::to_string(h), hqs,
        std::make_shared<IRProbeHQS>(*hqs));
  }
  for (const Case& c : cases) {
    ASSERT_TRUE(c.strategy->supports_batch(c.system->universe_size()))
        << c.label;
    auto options = engine_options(2);
    options.trials = 2300;
    options.batch_size = 1000;
    const RunningStats scalar = ParallelEstimator(scalar_loop(options))
                                    .estimate_ppc(*c.system, *c.strategy, 0.35);
    const RunningStats sliced =
        ParallelEstimator(options).estimate_ppc(*c.system, *c.strategy, 0.35);
    expect_same_stats(sliced, scalar, c.label);
  }
}

/// One 64-lane group's draws of values uniform in [0, bound), rebuilt lane
/// by lane from raw generator words: each round takes bit_width(bound-1)
/// words, and every lane still waiting reads its value from their bits and
/// keeps it once it is below `bound`.
std::array<std::uint32_t, 64> raw_lane_below(Rng& rng, std::uint32_t bound) {
  const auto bits = static_cast<std::size_t>(std::bit_width(bound - 1));
  std::array<std::uint32_t, 64> value{};
  std::uint64_t waiting = ~0ULL;
  while (waiting != 0) {
    std::vector<std::uint64_t> words(bits);
    for (auto& word : words) word = rng.next_u64();
    for (std::size_t lane = 0; lane < 64; ++lane) {
      if (((waiting >> lane) & 1ULL) == 0) continue;
      std::uint32_t v = 0;
      for (std::size_t b = 0; b < bits; ++b)
        v |= static_cast<std::uint32_t>((words[b] >> lane) & 1ULL) << b;
      value[lane] = v;
      if (v < bound) waiting &= ~(1ULL << lane);
    }
  }
  return value;
}

/// The colorings of one engine batch (stream v5, step 1): G * n words of
/// the unchanged sampler, trial t's element e at bit t % 64 of word
/// (t / 64) * n + e.
std::vector<std::vector<bool>> raw_batch_colorings(Rng& rng, std::size_t n,
                                                   std::size_t count,
                                                   double p) {
  const std::size_t groups = (count + 63) / 64;
  std::vector<std::uint64_t> words(groups * n);
  sample_iid_coloring_words(words.data(), groups * n, 64, p, rng);
  std::vector<std::vector<bool>> greens(count, std::vector<bool>(n));
  for (std::size_t t = 0; t < count; ++t)
    for (std::size_t e = 0; e < n; ++e)
      greens[t][e] = ((words[(t / 64) * n + e] >> (t % 64)) & 1ULL) != 0;
  return greens;
}

/// R_Probe_Tree's probe count on one coloring and per-node plans, by the
/// paper's recursion: plan 0 probes the root and the right subtree (the
/// left only on a mismatch), plan 1 mirrors it, plan 2 evaluates both
/// subtrees and probes the root only when they disagree.  Returns the
/// subtree's witness color.
bool r_tree_reference(const std::vector<bool>& green,
                      const std::vector<std::uint32_t>& plan, std::size_t v,
                      std::size_t& probes) {
  const std::size_t n = green.size();
  if (2 * v + 1 >= n) {
    ++probes;
    return green[v];
  }
  const std::size_t left = 2 * v + 1;
  const std::size_t right = 2 * v + 2;
  if (plan[v] == 2) {
    const bool l = r_tree_reference(green, plan, left, probes);
    const bool r = r_tree_reference(green, plan, right, probes);
    if (l == r) return l;
    ++probes;
    return green[v];
  }
  ++probes;
  const bool root = green[v];
  const std::size_t first = plan[v] == 0 ? right : left;
  const std::size_t second = plan[v] == 0 ? left : right;
  if (r_tree_reference(green, plan, first, probes) == root) return root;
  return r_tree_reference(green, plan, second, probes);
}

void expect_engine_matches(const QuorumSystem& system,
                           const ProbeStrategy& strategy,
                           EngineOptions options, double p,
                           const CountMoments& expected) {
  const RunningStats want = expected.stats();
  for (const EngineOptions& path : {scalar_loop(options), options}) {
    const RunningStats stats =
        ParallelEstimator(path).estimate_ppc(system, strategy, p);
    EXPECT_EQ(stats.count(), want.count()) << strategy.name();
    EXPECT_EQ(stats.mean(), want.mean()) << strategy.name();
    EXPECT_EQ(stats.variance(), want.variance()) << strategy.name();
    EXPECT_EQ(stats.min(), want.min()) << strategy.name();
    EXPECT_EQ(stats.max(), want.max()) << strategy.name();
  }
}

TEST(BatchKernel, EngineSamplesStreamV5LaneWordsAndChoices) {
  // The stream definition at the engine's surface, rebuilt from raw
  // generator words without the library's lane-draw helpers: batch k's rng
  // draws the G * n coloring words, then the strategy's choices for groups
  // 0 .. G-1 in order.  R_Probe_Maj: for i = n .. 2, J_i uniform in [0, i)
  // per lane, order = Fisher-Yates swaps of positions i-1 and J_i.
  // R_Probe_Tree: per internal node, a trit from two words (a, c), plan =
  // a + 2c.  The strategy's own group words must equal the rebuild, and
  // both the kernel and the scalar loop must reproduce the rebuilt trials'
  // statistics.
  const std::size_t count = 300;  // G = 5, the last group partial
  const double p = 0.3;
  EngineOptions options;
  options.trials = count;
  options.batch_size = count;
  options.threads = 1;
  options.seed = 77;
  const std::size_t groups = (count + 63) / 64;

  {
    const std::size_t n = 65;
    const MajoritySystem maj(n);
    const RProbeMaj strategy(maj);
    Rng rng = Rng::for_stream(options.seed, 0);
    Rng engine_rng = rng;
    const auto greens = raw_batch_colorings(rng, n, count, p);
    raw_batch_colorings(engine_rng, n, count, p);
    CountMoments expected;
    std::vector<std::uint64_t> drawn(strategy.lane_choice_words());
    for (std::size_t g = 0; g < groups; ++g) {
      strategy.draw_lane_choices(engine_rng, drawn.data());
      std::vector<std::array<std::uint32_t, 64>> j_values;
      std::size_t word = 0;
      for (std::uint32_t i = n; i > 1; --i) {
        j_values.push_back(raw_lane_below(rng, i));
        const auto bits = static_cast<std::size_t>(std::bit_width(i - 1u));
        for (std::size_t b = 0; b < bits; ++b, ++word) {
          std::uint64_t plane = 0;
          for (std::size_t lane = 0; lane < 64; ++lane)
            plane |= static_cast<std::uint64_t>(
                         (j_values.back()[lane] >> b) & 1U)
                     << lane;
          ASSERT_EQ(drawn[word], plane) << "group " << g << " i=" << i;
        }
      }
      ASSERT_EQ(word, drawn.size());
      for (std::size_t lane = 0; lane < 64 && g * 64 + lane < count; ++lane) {
        std::vector<std::uint32_t> order(n);
        for (std::uint32_t e = 0; e < n; ++e) order[e] = e;
        for (std::uint32_t i = n, step = 0; i > 1; --i, ++step)
          std::swap(order[i - 1], order[j_values[step][lane]]);
        const auto& green = greens[g * 64 + lane];
        std::size_t seen_green = 0, seen_red = 0, probes = 0;
        while (seen_green < maj.threshold() && seen_red < maj.threshold())
          ++(green[order[probes++]] ? seen_green : seen_red);
        expected.add(static_cast<std::uint32_t>(probes));
      }
    }
    expect_engine_matches(maj, strategy, options, p, expected);
  }

  for (const std::size_t h : {5u, 6u}) {  // n = 63, 127: no tree has n = 65
    const TreeSystem tree(h);
    const RProbeTree strategy(tree);
    const std::size_t n = tree.universe_size();
    Rng rng = Rng::for_stream(options.seed, 0);
    Rng engine_rng = rng;
    const auto greens = raw_batch_colorings(rng, n, count, p);
    raw_batch_colorings(engine_rng, n, count, p);
    CountMoments expected;
    std::vector<std::uint64_t> drawn(strategy.lane_choice_words());
    ASSERT_EQ(drawn.size(), n / 2 * 3);
    for (std::size_t g = 0; g < groups; ++g) {
      strategy.draw_lane_choices(engine_rng, drawn.data());
      std::vector<std::array<std::uint32_t, 64>> plans;
      for (std::size_t v = 0; v < n / 2; ++v) {
        plans.push_back(raw_lane_below(rng, 3));
        for (std::uint32_t plan = 0; plan < 3; ++plan) {
          std::uint64_t mask = 0;
          for (std::size_t lane = 0; lane < 64; ++lane)
            if (plans.back()[lane] == plan) mask |= 1ULL << lane;
          ASSERT_EQ(drawn[v * 3 + plan], mask) << "group " << g << " v=" << v;
        }
      }
      for (std::size_t lane = 0; lane < 64 && g * 64 + lane < count; ++lane) {
        std::vector<std::uint32_t> plan(n / 2);
        for (std::size_t v = 0; v < n / 2; ++v) plan[v] = plans[v][lane];
        std::size_t probes = 0;
        r_tree_reference(greens[g * 64 + lane], plan, 0, probes);
        expected.add(static_cast<std::uint32_t>(probes));
      }
    }
    expect_engine_matches(tree, strategy, options, p, expected);
  }
}

TEST(BatchKernel, EngineBitSlicedIsThreadCountInvariant) {
  const TreeSystem tree(5);
  const ProbeTree strategy(tree);
  const RunningStats baseline =
      ParallelEstimator(engine_options(1)).estimate_ppc(tree, strategy, 0.4);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const RunningStats stats = ParallelEstimator(engine_options(threads))
                                   .estimate_ppc(tree, strategy, 0.4);
    EXPECT_EQ(stats.count(), baseline.count()) << threads;
    EXPECT_EQ(stats.mean(), baseline.mean()) << threads;
    EXPECT_EQ(stats.variance(), baseline.variance()) << threads;
    EXPECT_EQ(stats.min(), baseline.min()) << threads;
    EXPECT_EQ(stats.max(), baseline.max()) << threads;
  }
}

TEST(BatchKernel, EngineSimdChoiceNeverChangesTheStatistics) {
  // The W = 4 engine tier against the scalar path on a randomized
  // strategy.  (The per-lane sweep over both widths is test_simd.cpp.)
  const MajoritySystem maj(63);
  const RProbeMaj strategy(maj);
  const RunningStats sliced =
      ParallelEstimator(engine_options(2)).estimate_ppc(maj, strategy, 0.5);
  const RunningStats scalar = ParallelEstimator(scalar_loop(engine_options(2)))
                                  .estimate_ppc(maj, strategy, 0.5);
  expect_same_stats(sliced, scalar, strategy.name());
}

TEST(BatchKernel, McCurvesQuickGridKernelsMatchTheScalarLoop) {
  // bench_mc_curves --quick --trials 5000 --threads 2, point for point:
  // its SweepSpec blocks, p grid, base seed and derived per-point seeds.
  // Every one of the 39 points runs on the kernels (validation off) and on
  // the scalar per-trial loop (validation on), and the statistics the
  // bench would report must agree to the bit.
  const std::vector<std::vector<std::size_t>> walls = {{1, 2}, {1, 2, 3}};
  sweep::SweepSpec spec("mc_curves", 20010826);
  spec.add_block("maj", {5, 7}, {"det", "R"});
  spec.add_block("tree", {2}, {"det", "R"});
  spec.add_block("hqs", {2}, {"det", "R", "IR"});
  spec.add_block("cw", {0, 1}, {"det", "R"});
  spec.set_ps({0.25, 0.5, 0.75});
  const std::vector<sweep::SweepPoint> points = spec.expand();
  ASSERT_EQ(points.size(), 39u);
  for (const sweep::SweepPoint& point : points) {
    std::unique_ptr<QuorumSystem> system;
    ProbeStrategyPtr strategy;
    const std::string& tag = point.strategy;
    if (point.family == "maj") {
      auto maj = std::make_unique<MajoritySystem>(point.size);
      strategy = tag == "det" ? ProbeStrategyPtr(new ProbeMaj(*maj))
                              : ProbeStrategyPtr(new RProbeMaj(*maj));
      system = std::move(maj);
    } else if (point.family == "tree") {
      auto tree = std::make_unique<TreeSystem>(point.size);
      strategy = tag == "det" ? ProbeStrategyPtr(new ProbeTree(*tree))
                              : ProbeStrategyPtr(new RProbeTree(*tree));
      system = std::move(tree);
    } else if (point.family == "hqs") {
      auto hqs = std::make_unique<HQSystem>(point.size);
      strategy = tag == "det" ? ProbeStrategyPtr(new ProbeHQS(*hqs))
                 : tag == "R" ? ProbeStrategyPtr(new RProbeHQS(*hqs))
                              : ProbeStrategyPtr(new IRProbeHQS(*hqs));
      system = std::move(hqs);
    } else {
      auto wall = std::make_unique<CrumblingWall>(walls.at(point.size));
      strategy = tag == "det" ? ProbeStrategyPtr(new ProbeCW(*wall))
                              : ProbeStrategyPtr(new RProbeCW(*wall));
      system = std::move(wall);
    }
    ASSERT_TRUE(strategy->supports_batch(system->universe_size()))
        << point.id;
    EngineOptions options;
    options.trials = 5000;
    options.threads = 2;
    options.seed = point.seed;
    const RunningStats sliced =
        ParallelEstimator(options).estimate_ppc(*system, *strategy, point.p);
    const RunningStats scalar = ParallelEstimator(scalar_loop(options))
                                    .estimate_ppc(*system, *strategy, point.p);
    expect_same_stats(sliced, scalar, point.id);
  }
}

TEST(BatchKernel, EarlyStopDecisionsMatchTheScalarPath) {
  const MajoritySystem maj(63);
  const ProbeMaj strategy(maj);
  auto options = engine_options(4);
  options.trials = 100000;
  options.target_sem = 0.05;
  options.min_trials = 2000;
  const RunningStats sliced =
      ParallelEstimator(options).estimate_ppc(maj, strategy, 0.5);
  const RunningStats scalar =
      ParallelEstimator(scalar_loop(options)).estimate_ppc(maj, strategy, 0.5);
  EXPECT_LT(sliced.count(), options.trials);  // the stop actually fired
  EXPECT_EQ(sliced.count(), scalar.count());
  EXPECT_EQ(sliced.mean(), scalar.mean());
}

TEST(BatchKernel, StrategiesWithoutAKernelFallBackUnchanged) {
  // The greedy baseline has no bit-sliced kernel (its probe order depends
  // on observed colors mid-run), so it always runs the scalar loop, and
  // validating its witnesses leaves the statistics unchanged.
  const MajoritySystem maj(11);
  const GreedyCandidateProbe greedy(maj);
  EXPECT_FALSE(greedy.supports_batch(11));
  auto options = engine_options(2);
  options.trials = 500;  // the greedy baseline is slow per trial
  options.batch_size = 64;
  const RunningStats plain =
      ParallelEstimator(options).estimate_ppc(maj, greedy, 0.5);
  const RunningStats validated =
      ParallelEstimator(scalar_loop(options)).estimate_ppc(maj, greedy, 0.5);
  EXPECT_EQ(plain.count(), validated.count());
  EXPECT_EQ(plain.mean(), validated.mean());
  EXPECT_EQ(plain.variance(), validated.variance());
}

TEST(BatchKernel, SupportsBatchRespectsStructuralEligibility) {
  const MajoritySystem maj63(63);
  const ProbeMaj probe_maj(maj63);
  EXPECT_TRUE(probe_maj.supports_batch(63));
  EXPECT_FALSE(probe_maj.supports_batch(21));  // wrong universe
  const RProbeMaj r_probe_maj(maj63);
  EXPECT_TRUE(r_probe_maj.supports_batch(63));
  // A wall without the width-1 top row Probe_CW requires is ineligible,
  // randomized or not.
  const CrumblingWall wide_top({2, 2}, /*require_nd=*/false);
  const ProbeCW probe_cw(wide_top);
  EXPECT_FALSE(probe_cw.supports_batch(wide_top.universe_size()));
  const RProbeCW r_probe_cw(wide_top);
  EXPECT_FALSE(r_probe_cw.supports_batch(wide_top.universe_size()));
  // Random_Order needs a counting certificate; TreeSystem advertises none.
  const TreeSystem tree(2);
  const RandomOrderProbe on_tree(tree);
  EXPECT_FALSE(on_tree.supports_batch(tree.universe_size()));
  const RandomOrderProbe on_maj(maj63);
  EXPECT_TRUE(on_maj.supports_batch(63));
}

TEST(BatchKernel, ValidationRequestsFallBackToTheValidatingScalarPath) {
  // A broken strategy that claims a kernel must still be caught under
  // validate_witnesses: validation is a scalar-loop concern and routes
  // estimate_ppc there.
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
    bool supports_batch(std::size_t) const override { return true; }
  };
  const MajoritySystem maj(5);
  const Broken broken;
  const EngineOptions options = scalar_loop(engine_options(2));
  EXPECT_THROW(ParallelEstimator(options).estimate_ppc(maj, broken, 0.5),
               std::logic_error);
}

TEST(BatchKernel, DefaultRunBatchRefusesStrategiesWithoutAKernel) {
  const MajoritySystem maj(5);
  const GreedyCandidateProbe greedy(maj);
  BatchTrialBlock block;
  block.configure(resolve_simd_kernels(SimdIsa::kOff), 5);
  std::uint64_t mask = 0x15;
  block.load(&mask, 1);
  Rng rng(1);
  EXPECT_THROW(greedy.run_batch(block, rng), std::logic_error);
}

}  // namespace
}  // namespace qps
