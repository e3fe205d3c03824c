// Zero-allocation contract of the Monte-Carlo hot path.
//
// This binary replaces the global allocation functions with counting
// forwarders (which is why it is its own test executable) and asserts that
// a steady-state trial -- batched lane-word coloring sampling and its
// transpose into rows, workspace reset, the lane-major choice draws and
// run_lane (randomized batch strategies) or run_with (the rest) --
// performs exactly zero heap allocations for every strategy x family at
// n <= 64.  The first trials of a workspace may allocate (buffers grow to
// their high-water mark); the measured window starts after a warmup.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/algorithms/greedy.h"
#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/algorithms/random_order.h"
#include "core/engine/batch_kernel.h"
#include "core/engine/trial_workspace.h"
#include "core/obs/metrics.h"
#include "util/stats.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  ++g_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size == 0 ? alignment : size) != 0)
    throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qps {
namespace {

/// Runs `trials` hot-path trials and returns the allocations performed
/// after the warmup window.
std::size_t allocations_in_steady_state(const QuorumSystem& system,
                                        const ProbeStrategy& strategy,
                                        double p, std::size_t trials) {
  const std::size_t n = system.universe_size();
  TrialWorkspace ws(n);
  Rng rng(20010826);
  constexpr std::size_t kBatch = 256;
  std::uint64_t* lanes = ws.lane_words(kBatch);
  std::uint64_t* masks = ws.coloring_masks(kBatch);

  // The engine's scalar path: lane words sampled, transposed into rows;
  // strategies with lane choices draw one group per 64 trials and run each
  // trial from its lane, the rest run_with.
  const std::size_t choice_words =
      strategy.supports_batch(n) ? strategy.lane_choice_words() : 0;
  std::uint64_t* choices = ws.lane_choices(choice_words);
  const auto run_batch = [&] {
    sample_iid_lane_words(lanes, kBatch, n, p, rng);
    transpose_lane_words_to_rows(lanes, kBatch, n, 1, n, masks);
    for (std::size_t i = 0; i < kBatch; ++i) {
      ws.coloring().assign_greens_mask(masks[i]);
      ProbeSession& session = ws.begin_trial(ws.coloring());
      Witness witness;
      if (choice_words == 0) {
        witness = strategy.run_with(ws, session, rng);
      } else {
        if (i % 64 == 0) strategy.draw_lane_choices(rng, choices);
        witness = strategy.run_lane(ws, session, choices, i % 64);
      }
      if (witness.elements.empty()) std::abort();  // keep the result alive
    }
  };

  run_batch();  // warmup: buffers grow to their high-water mark here
  const std::size_t before = g_allocations.load();
  for (std::size_t done = 0; done < trials; done += kBatch) run_batch();
  return g_allocations.load() - before;
}

TEST(ZeroAllocationHotPath, EveryStrategyAndFamilyIsAllocationFree) {
  const MajoritySystem maj63(63);
  const MajoritySystem maj7(7);
  const TreeSystem tree5(5);   // n = 63
  const HQSystem hqs3(3);      // n = 27
  const CrumblingWall cw10 = CrumblingWall::triang(10);  // n = 55

  const ProbeMaj probe_maj(maj63);
  const RProbeMaj r_probe_maj(maj63);
  const RandomOrderProbe random_order(maj7);
  const GreedyCandidateProbe greedy(maj7);
  const ProbeTree probe_tree(tree5);
  const RProbeTree r_probe_tree(tree5);
  const ProbeHQS probe_hqs(hqs3);
  const RProbeHQS r_probe_hqs(hqs3);
  const IRProbeHQS ir_probe_hqs(hqs3);
  const ProbeCW probe_cw(cw10);
  const RProbeCW r_probe_cw(cw10);

  const struct {
    const QuorumSystem* system;
    const ProbeStrategy* strategy;
  } cases[] = {
      {&maj63, &probe_maj},   {&maj63, &r_probe_maj},
      {&maj7, &random_order}, {&maj7, &greedy},
      {&tree5, &probe_tree},  {&tree5, &r_probe_tree},
      {&hqs3, &probe_hqs},    {&hqs3, &r_probe_hqs},
      {&hqs3, &ir_probe_hqs}, {&cw10, &probe_cw},
      {&cw10, &r_probe_cw},
  };
  for (const auto& c : cases) {
    const std::size_t allocations =
        allocations_in_steady_state(*c.system, *c.strategy, 0.5, 2048);
    EXPECT_EQ(allocations, 0u)
        << c.strategy->name() << " on " << c.system->name();
  }
}

TEST(ZeroAllocationHotPath, LegacyRProbeCwEntryPointIsClean) {
  // R_Probe_CW's per-call row scratch lives on the stack for n <= 64, and
  // the run() convenience reuses one workspace per thread, so run()
  // allocates nothing per trial -- nor do strategies that keep scratch in
  // that workspace (the greedy baseline, the random-order probers).
  const CrumblingWall cw10 = CrumblingWall::triang(10);
  const RProbeCW r_probe_cw(cw10);
  const RandomOrderProbe random_order(cw10);
  const MajoritySystem maj9(9);
  const GreedyCandidateProbe greedy(maj9);
  Rng rng(7);

  const auto steady_allocations = [&](const QuorumSystem& system,
                                      const ProbeStrategy& strategy) {
    const std::size_t n = system.universe_size();
    Coloring coloring(n);
    ProbeSession session(coloring);
    std::uint64_t mask = 0;
    const auto trial = [&] {
      sample_iid_coloring_words(&mask, 1, n, 0.5, rng);
      coloring.assign_greens_mask(mask);
      session.reset(coloring);
      (void)strategy.run(session, rng);
    };
    for (int i = 0; i < 16; ++i) trial();  // warmup
    const std::size_t before = g_allocations.load();
    for (int i = 0; i < 512; ++i) trial();
    return g_allocations.load() - before;
  };
  EXPECT_EQ(steady_allocations(cw10, r_probe_cw), 0u);
  EXPECT_EQ(steady_allocations(cw10, random_order), 0u);
  EXPECT_EQ(steady_allocations(maj9, greedy), 0u);
}

TEST(ZeroAllocationHotPath, RunConvenienceAboveSixtyFourAddsNoAllocation) {
  // Above n = 64 a witness is heap-backed, so run_with itself allocates;
  // run() must add nothing to that.  A fresh workspace per run() would
  // heap-allocate and zero a coloring and three probe sets that run_with
  // never reads; the per-thread workspace is built once per universe size.
  const CrumblingWall triang32 = CrumblingWall::triang(32);  // n = 528
  const ProbeCW probe_cw(triang32);
  const RandomOrderProbe random_order(triang32);
  Rng rng(8);
  const Coloring coloring =
      sample_iid_coloring(triang32.universe_size(), 0.5, rng);
  ProbeSession session(coloring);
  TrialWorkspace workspace(triang32.universe_size());
  const auto steady_allocations = [&](const ProbeStrategy& strategy,
                                      bool convenience) {
    const auto trial = [&] {
      session.reset(coloring);
      (void)(convenience ? strategy.run(session, rng)
                         : strategy.run_with(workspace, session, rng));
    };
    for (int i = 0; i < 16; ++i) trial();  // warmup
    const std::size_t before = g_allocations.load();
    for (int i = 0; i < 256; ++i) trial();
    return g_allocations.load() - before;
  };
  for (const ProbeStrategy* strategy :
       {static_cast<const ProbeStrategy*>(&probe_cw),
        static_cast<const ProbeStrategy*>(&random_order)}) {
    SCOPED_TRACE(strategy->name());
    EXPECT_EQ(steady_allocations(*strategy, /*convenience=*/true),
              steady_allocations(*strategy, /*convenience=*/false));
  }
}

TEST(ZeroAllocationHotPath, BitSlicedBatchKernelIsAllocationFree) {
  // The bit-sliced batch path: sample a batch of lane words, load
  // super-blocks into the workspace's BatchTrialBlock, run the strategy's
  // batch kernel, fold the probe counts into exact moments.  Zero
  // allocations in the steady state for every batch-eligible strategy,
  // including the randomized-order kernels (their lane-major choices,
  // shuffle decode tables and plan masks live in block-owned buffers
  // sized by configure()).
  const MajoritySystem maj63(63);
  const TreeSystem tree5(5);   // n = 63
  const HQSystem hqs3(3);      // n = 27
  const CrumblingWall cw10 = CrumblingWall::triang(10);  // n = 55

  const ProbeMaj probe_maj(maj63);
  const RProbeMaj r_probe_maj(maj63);
  const RandomOrderProbe random_order(maj63);
  const ProbeTree probe_tree(tree5);
  const RProbeTree r_probe_tree(tree5);
  const ProbeHQS probe_hqs(hqs3);
  const RProbeHQS r_probe_hqs(hqs3);
  const IRProbeHQS ir_probe_hqs(hqs3);
  const ProbeCW probe_cw(cw10);
  const RProbeCW r_probe_cw(cw10);

  const struct {
    const QuorumSystem* system;
    const ProbeStrategy* strategy;
  } cases[] = {
      {&maj63, &probe_maj}, {&maj63, &r_probe_maj}, {&maj63, &random_order},
      {&tree5, &probe_tree}, {&tree5, &r_probe_tree},
      {&hqs3, &probe_hqs},   {&hqs3, &r_probe_hqs}, {&hqs3, &ir_probe_hqs},
      {&cw10, &probe_cw},    {&cw10, &r_probe_cw},
  };
  const SimdKernels& kernels = resolve_simd_kernels(SimdIsa::kAuto);
  for (const auto& c : cases) {
    const std::size_t n = c.system->universe_size();
    ASSERT_TRUE(c.strategy->supports_batch(n)) << c.strategy->name();
    TrialWorkspace ws(n);
    Rng rng(20010826);
    constexpr std::size_t kBatch = 256;
    std::uint64_t* words = ws.lane_words(kBatch);
    CountMoments moments;

    const auto run_batch = [&] {
      sample_iid_lane_words(words, kBatch, n, 0.5, rng);
      BatchTrialBlock& block = ws.batch_block();
      block.configure(kernels, n);  // no-op after the first call
      for (std::size_t off = 0; off < kBatch;
           off += block.lane_capacity()) {
        const std::size_t lanes =
            std::min(block.lane_capacity(), kBatch - off);
        block.load_lanes(words + off / 64 * n, lanes);
        c.strategy->run_batch(block, rng);
        block.fold_probe_counts(moments);
      }
    };

    run_batch();  // warmup
    const std::size_t before = g_allocations.load();
    for (int i = 0; i < 8; ++i) run_batch();
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << c.strategy->name() << " on " << c.system->name();
    if (moments.sum() == 0) std::abort();  // keep the counts alive
  }
}

TEST(ZeroAllocationHotPath, MetricsEnabledHotPathStaysAllocationFree) {
  // The observability layer rides the hot path in default builds
  // (QPS_OBS_METRICS=1): counters, histograms, and the instrumented
  // bit-sliced kernel must all hold the zero-allocations-per-trial
  // contract in the steady state.  Registration (first use of a name) may
  // allocate; that happens in the warmup.
  const MajoritySystem maj63(63);
  const ProbeMaj probe_maj(maj63);
  const std::size_t n = maj63.universe_size();
  TrialWorkspace ws(n);
  Rng rng(20010826);
  constexpr std::size_t kBatch = 256;
  std::uint64_t* lanes = ws.lane_words(kBatch);

  obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("test/alloc_hotpath_counter");
  obs::Histogram& histogram = obs::MetricsRegistry::instance().histogram(
      "test/alloc_hotpath_histogram");
  CountMoments stats;

  ws.batch_block().configure(resolve_simd_kernels(SimdIsa::kAuto), n);
  const auto run_batch = [&] {
    sample_iid_lane_words(lanes, kBatch, n, 0.5, rng);
    run_bit_sliced_trials(probe_maj, ws.batch_block(), lanes, kBatch, n, rng,
                          stats);
    counter.add(kBatch);
    histogram.record(stats.count());
  };

  run_batch();  // warmup: buffer growth and instrument registration
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 8; ++i) run_batch();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  if (stats.count() == 0) std::abort();  // keep the results alive
}

TEST(ZeroAllocationHotPath, TheAllocationCounterItselfWorks) {
  const std::size_t before = g_allocations.load();
  auto p = std::make_unique<std::vector<int>>(100);
  p->push_back(1);
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace qps
