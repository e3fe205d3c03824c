// Google-benchmark microbenchmarks: throughput of the primitives the
// experiment harnesses lean on (characteristic functions, probe
// algorithms, exact engines, the simulator).  These guard against
// performance regressions; they make no paper claims.
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/engine/batch_kernel.h"
#include "core/engine/trial_workspace.h"
#include "core/estimator.h"
#include "core/exact/ppc_exact.h"
#include "core/expectation.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace {

using namespace qps;

void BM_CharacteristicMaj(benchmark::State& state) {
  const MajoritySystem maj(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const Coloring c = sample_iid_coloring(maj.universe_size(), 0.5, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(maj.contains_quorum(c.greens()));
}
BENCHMARK(BM_CharacteristicMaj)->Arg(101)->Arg(1001)->Arg(10001);

void BM_CharacteristicTree(benchmark::State& state) {
  const TreeSystem tree(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const Coloring c = sample_iid_coloring(tree.universe_size(), 0.5, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(tree.contains_quorum(c.greens()));
}
BENCHMARK(BM_CharacteristicTree)->Arg(8)->Arg(12)->Arg(16);

void BM_CharacteristicHqs(benchmark::State& state) {
  const HQSystem hqs(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const Coloring c = sample_iid_coloring(hqs.universe_size(), 0.5, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(hqs.contains_quorum(c.greens()));
}
BENCHMARK(BM_CharacteristicHqs)->Arg(6)->Arg(8)->Arg(10);

void BM_ProbeMajRun(benchmark::State& state) {
  const MajoritySystem maj(static_cast<std::size_t>(state.range(0)));
  const ProbeMaj strategy(maj);
  Rng rng(2);
  const Coloring c = sample_iid_coloring(maj.universe_size(), 0.5, rng);
  for (auto _ : state) {
    ProbeSession session(c);
    benchmark::DoNotOptimize(strategy.run(session, rng));
  }
}
BENCHMARK(BM_ProbeMajRun)->Arg(101)->Arg(1001);

void BM_ProbeCwRun(benchmark::State& state) {
  const CrumblingWall wall = CrumblingWall::triang(
      static_cast<std::size_t>(state.range(0)));
  const ProbeCW strategy(wall);
  Rng rng(3);
  const Coloring c = sample_iid_coloring(wall.universe_size(), 0.5, rng);
  for (auto _ : state) {
    ProbeSession session(c);
    benchmark::DoNotOptimize(strategy.run(session, rng));
  }
}
BENCHMARK(BM_ProbeCwRun)->Arg(8)->Arg(32);

void BM_ProbeTreeRun(benchmark::State& state) {
  const TreeSystem tree(static_cast<std::size_t>(state.range(0)));
  const ProbeTree strategy(tree);
  Rng rng(4);
  const Coloring c = sample_iid_coloring(tree.universe_size(), 0.5, rng);
  for (auto _ : state) {
    ProbeSession session(c);
    benchmark::DoNotOptimize(strategy.run(session, rng));
  }
}
BENCHMARK(BM_ProbeTreeRun)->Arg(8)->Arg(12)->Arg(16);

void BM_IrProbeHqsRun(benchmark::State& state) {
  const HQSystem hqs(static_cast<std::size_t>(state.range(0)));
  const IRProbeHQS strategy(hqs);
  Rng rng(5);
  const Coloring c = hqs_worst_case_coloring(hqs, Color::kGreen);
  for (auto _ : state) {
    ProbeSession session(c);
    benchmark::DoNotOptimize(strategy.run(session, rng));
  }
}
BENCHMARK(BM_IrProbeHqsRun)->Arg(4)->Arg(6)->Arg(8);

void BM_PpcExactMaj(benchmark::State& state) {
  const MajoritySystem maj(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(ppc_exact(maj, 0.5));
}
BENCHMARK(BM_PpcExactMaj)->Arg(5)->Arg(7)->Arg(9)->Unit(benchmark::kMicrosecond);

void BM_ExactTreeExpectation(benchmark::State& state) {
  const TreeSystem tree(static_cast<std::size_t>(state.range(0)));
  Rng rng(6);
  const Coloring c = sample_iid_coloring(tree.universe_size(), 0.5, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(r_probe_tree_expectation(tree, c));
}
BENCHMARK(BM_ExactTreeExpectation)->Arg(8)->Arg(12)->Arg(16);

// The i.i.d. coloring sampler on its own: one iteration samples a
// 1024-trial batch of mask rows (ceil(n/64) words each) at p = p_pct/100.
// ns_per_word is the sampler's cost per 64-lane mask word, the unit its
// early exit works in: Maj5 settles 5 lanes, Maj63 and the two-word
// Maj127 rows 63 or 64.  Informational; no gate reads it.
void BM_SampleColoringWords(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 100.0;
  constexpr std::size_t kBatch = 1024;
  const std::size_t words = kBatch * ((n + 63) / 64);
  std::vector<std::uint64_t> masks(words);
  Rng rng(41);
  double elapsed_ns = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    sample_iid_coloring_words(masks.data(), kBatch, n, p, rng);
    benchmark::DoNotOptimize(masks.data());
    elapsed_ns += std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  }
  state.counters["ns_per_word"] =
      elapsed_ns / (static_cast<double>(state.iterations()) *
                    static_cast<double>(words));
}
BENCHMARK(BM_SampleColoringWords)
    ->ArgNames({"n", "p_pct"})
    ->ArgsProduct({{5, 63, 127}, {10, 30, 50}});

// The sampler at the layout the engine ships (since stream v4): one iteration
// samples a 1024-trial batch lane-major (sample_iid_lane_words, 16 groups
// of n words).  ns_per_trial is the cost the engine pays per trial for
// its colorings; it scales with n / 64 words per trial, where the
// trial-major rows above cost ceil(n / 64).  Informational; no gate reads
// it.
void BM_SampleColoringWordsLaneMajor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / 100.0;
  constexpr std::size_t kBatch = 1024;
  std::vector<std::uint64_t> lanes((kBatch + 63) / 64 * n);
  Rng rng(41);
  double elapsed_ns = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    sample_iid_lane_words(lanes.data(), kBatch, n, p, rng);
    benchmark::DoNotOptimize(lanes.data());
    elapsed_ns += std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  }
  state.counters["ns_per_trial"] =
      elapsed_ns / (static_cast<double>(state.iterations()) *
                    static_cast<double>(kBatch));
}
BENCHMARK(BM_SampleColoringWordsLaneMajor)
    ->ArgNames({"n", "p_pct"})
    ->ArgsProduct({{5, 13, 63, 127}, {10, 30, 50}});

// --- Probe-throughput suite ----------------------------------------------
// Trials/sec of one full Monte-Carlo trial (coloring sample + probe run)
// per family, on three paths:
//  * Generic: the pre-workspace shape of the trial -- a fresh coloring, a
//    fresh session answering probes through a type-erased std::function
//    oracle, and the ProbeStrategy::run() convenience, which builds a
//    fresh TrialWorkspace per call.
//  * Hot: the zero-allocation scalar path -- one TrialWorkspace, colorings
//    refilled in place from batched word-level sampling
//    (sample_iid_coloring_words), and the scratch-aware run_with() entry
//    point.
//  * Batch: the bit-sliced 64-trials-per-word kernel
//    (core/engine/batch_kernel.h) pinned to the single-word W = 1 table
//    -- transposed colorings, mask-arithmetic lane control, bit-sliced
//    probe tallies.
//  * Simd: the same batch kernel on the production W = 4 table
//    (core/engine/simd.h, 4 lane words per pass), deterministic-order
//    strategies -- the Batch/Simd pair isolates the widening win.
//  * RandBatch: the batch kernel (W = 4) on the randomized-order
//    strategies, which draw their choices lane-major (64 trials per word:
//    plan masks, or shuffles of the element rows) -- paired with Hot on
//    the same strategy.
// items_per_second is trials/sec.  CI pairs Generic/Hot, Hot/Batch,
// Batch/Simd and Hot/RandBatch by suffix
// (bench/probe_throughput_schema.py), records the hot_vs_generic,
// batch_vs_hot, simd_vs_batch and randomized_batch_vs_hot speedup series
// under stable metric names in BENCH_micro_probe.json, and gates every
// speedup > 1.

void run_generic_trials(benchmark::State& state, const QuorumSystem& system,
                        const ProbeStrategy& strategy, double p) {
  const std::size_t n = system.universe_size();
  Rng rng(17);
  for (auto _ : state) {
    const Coloring c = sample_iid_coloring(n, p, rng);
    ProbeSession session(n, [&c](Element e) { return c.color(e); });
    benchmark::DoNotOptimize(strategy.run(session, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void run_hot_trials(benchmark::State& state, const QuorumSystem& system,
                    const ProbeStrategy& strategy, double p) {
  const std::size_t n = system.universe_size();
  constexpr std::size_t kBatch = 1024;
  TrialWorkspace ws(n);
  Rng rng(17);
  std::uint64_t* masks = ws.coloring_masks(kBatch);
  std::size_t next = kBatch;
  for (auto _ : state) {
    if (next == kBatch) {
      sample_iid_coloring_words(masks, kBatch, n, p, rng);
      next = 0;
    }
    ws.coloring().assign_greens_mask(masks[next++]);
    ProbeSession& session = ws.begin_trial(ws.coloring());
    benchmark::DoNotOptimize(strategy.run_with(ws, session, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void run_batch_trials(benchmark::State& state, const QuorumSystem& system,
                      const ProbeStrategy& strategy, double p, SimdIsa isa) {
  const std::size_t n = system.universe_size();
  constexpr std::size_t kBatch = 4096;  // a multiple of every lane capacity
  const SimdKernels& kernels = resolve_simd_kernels(isa);
  TrialWorkspace ws(n);
  Rng rng(17);
  std::uint64_t* masks = ws.coloring_masks(kBatch);
  BatchTrialBlock& block = ws.batch_block();
  block.configure(kernels, n);
  const std::size_t lanes = block.lane_capacity();
  std::size_t next = kBatch;
  CountMoments moments;
  // One iteration = one super-block of 64*W lanes, the reduction included
  // (the engine folds every lane's count into its exact moments).
  for (auto _ : state) {
    if (next == kBatch) {
      sample_iid_coloring_words(masks, kBatch, n, p, rng);
      next = 0;
    }
    block.load(masks + next, lanes);
    strategy.run_batch(block, rng);
    block.fold_probe_counts(moments);
    next += lanes;
  }
  benchmark::DoNotOptimize(moments.sum());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}

void BM_ProbeTrials_Generic_Maj63(benchmark::State& state) {
  const MajoritySystem maj(63);
  const ProbeMaj strategy(maj);
  run_generic_trials(state, maj, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Generic_Maj63);

void BM_ProbeTrials_Hot_Maj63(benchmark::State& state) {
  const MajoritySystem maj(63);
  const ProbeMaj strategy(maj);
  run_hot_trials(state, maj, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Hot_Maj63);

void BM_ProbeTrials_Batch_Maj63(benchmark::State& state) {
  const MajoritySystem maj(63);
  const ProbeMaj strategy(maj);
  run_batch_trials(state, maj, strategy, 0.5, SimdIsa::kOff);
}
BENCHMARK(BM_ProbeTrials_Batch_Maj63);

void BM_ProbeTrials_Simd_Maj63(benchmark::State& state) {
  const MajoritySystem maj(63);
  const ProbeMaj strategy(maj);
  run_batch_trials(state, maj, strategy, 0.5, SimdIsa::kAuto);
}
BENCHMARK(BM_ProbeTrials_Simd_Maj63);

void BM_ProbeTrials_Generic_RMaj63(benchmark::State& state) {
  const MajoritySystem maj(63);
  const RProbeMaj strategy(maj);
  run_generic_trials(state, maj, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Generic_RMaj63);

void BM_ProbeTrials_Hot_RMaj63(benchmark::State& state) {
  const MajoritySystem maj(63);
  const RProbeMaj strategy(maj);
  run_hot_trials(state, maj, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Hot_RMaj63);

void BM_ProbeTrials_Generic_Tree63(benchmark::State& state) {
  const TreeSystem tree(5);  // n = 63
  const RProbeTree strategy(tree);
  run_generic_trials(state, tree, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Generic_Tree63);

void BM_ProbeTrials_Hot_Tree63(benchmark::State& state) {
  const TreeSystem tree(5);
  const RProbeTree strategy(tree);
  run_hot_trials(state, tree, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Hot_Tree63);

// Deterministic-order tree / cw probers: the Hot/Batch pair measures the
// bit-sliced kernel against the scalar hot path on the same strategy.
void BM_ProbeTrials_Hot_DetTree63(benchmark::State& state) {
  const TreeSystem tree(5);  // n = 63
  const ProbeTree strategy(tree);
  run_hot_trials(state, tree, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Hot_DetTree63);

void BM_ProbeTrials_Batch_DetTree63(benchmark::State& state) {
  const TreeSystem tree(5);
  const ProbeTree strategy(tree);
  run_batch_trials(state, tree, strategy, 0.5, SimdIsa::kOff);
}
BENCHMARK(BM_ProbeTrials_Batch_DetTree63);

void BM_ProbeTrials_Simd_DetTree63(benchmark::State& state) {
  const TreeSystem tree(5);
  const ProbeTree strategy(tree);
  run_batch_trials(state, tree, strategy, 0.5, SimdIsa::kAuto);
}
BENCHMARK(BM_ProbeTrials_Simd_DetTree63);

void BM_ProbeTrials_Generic_Hqs27(benchmark::State& state) {
  const HQSystem hqs(3);  // n = 27
  const ProbeHQS strategy(hqs);
  run_generic_trials(state, hqs, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Generic_Hqs27);

void BM_ProbeTrials_Hot_Hqs27(benchmark::State& state) {
  const HQSystem hqs(3);
  const ProbeHQS strategy(hqs);
  run_hot_trials(state, hqs, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Hot_Hqs27);

void BM_ProbeTrials_Hot_RHqs27(benchmark::State& state) {
  const HQSystem hqs(3);
  const RProbeHQS strategy(hqs);
  run_hot_trials(state, hqs, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Hot_RHqs27);

void BM_ProbeTrials_Hot_IrHqs27(benchmark::State& state) {
  const HQSystem hqs(3);
  const IRProbeHQS strategy(hqs);
  run_hot_trials(state, hqs, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Hot_IrHqs27);

void BM_ProbeTrials_Batch_Hqs27(benchmark::State& state) {
  const HQSystem hqs(3);
  const ProbeHQS strategy(hqs);
  run_batch_trials(state, hqs, strategy, 0.5, SimdIsa::kOff);
}
BENCHMARK(BM_ProbeTrials_Batch_Hqs27);

void BM_ProbeTrials_Simd_Hqs27(benchmark::State& state) {
  const HQSystem hqs(3);
  const ProbeHQS strategy(hqs);
  run_batch_trials(state, hqs, strategy, 0.5, SimdIsa::kAuto);
}
BENCHMARK(BM_ProbeTrials_Simd_Hqs27);

void BM_ProbeTrials_Generic_Cw55(benchmark::State& state) {
  const CrumblingWall wall = CrumblingWall::triang(10);  // n = 55
  const RProbeCW strategy(wall);
  run_generic_trials(state, wall, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Generic_Cw55);

void BM_ProbeTrials_Hot_Cw55(benchmark::State& state) {
  const CrumblingWall wall = CrumblingWall::triang(10);
  const RProbeCW strategy(wall);
  run_hot_trials(state, wall, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Hot_Cw55);

void BM_ProbeTrials_Hot_DetCw55(benchmark::State& state) {
  const CrumblingWall wall = CrumblingWall::triang(10);  // n = 55
  const ProbeCW strategy(wall);
  run_hot_trials(state, wall, strategy, 0.5);
}
BENCHMARK(BM_ProbeTrials_Hot_DetCw55);

void BM_ProbeTrials_Batch_DetCw55(benchmark::State& state) {
  const CrumblingWall wall = CrumblingWall::triang(10);
  const ProbeCW strategy(wall);
  run_batch_trials(state, wall, strategy, 0.5, SimdIsa::kOff);
}
BENCHMARK(BM_ProbeTrials_Batch_DetCw55);

void BM_ProbeTrials_Simd_DetCw55(benchmark::State& state) {
  const CrumblingWall wall = CrumblingWall::triang(10);
  const ProbeCW strategy(wall);
  run_batch_trials(state, wall, strategy, 0.5, SimdIsa::kAuto);
}
BENCHMARK(BM_ProbeTrials_Simd_DetCw55);

// Randomized-order strategies through the batch kernel (lane-major
// choices, W = 4), paired with Hot on the same strategy: the
// randomized_batch_vs_hot series.
void BM_ProbeTrials_RandBatch_RMaj63(benchmark::State& state) {
  const MajoritySystem maj(63);
  const RProbeMaj strategy(maj);
  run_batch_trials(state, maj, strategy, 0.5, SimdIsa::kAuto);
}
BENCHMARK(BM_ProbeTrials_RandBatch_RMaj63);

void BM_ProbeTrials_RandBatch_Tree63(benchmark::State& state) {
  const TreeSystem tree(5);
  const RProbeTree strategy(tree);
  run_batch_trials(state, tree, strategy, 0.5, SimdIsa::kAuto);
}
BENCHMARK(BM_ProbeTrials_RandBatch_Tree63);

void BM_ProbeTrials_RandBatch_RHqs27(benchmark::State& state) {
  const HQSystem hqs(3);
  const RProbeHQS strategy(hqs);
  run_batch_trials(state, hqs, strategy, 0.5, SimdIsa::kAuto);
}
BENCHMARK(BM_ProbeTrials_RandBatch_RHqs27);

void BM_ProbeTrials_RandBatch_IrHqs27(benchmark::State& state) {
  const HQSystem hqs(3);
  const IRProbeHQS strategy(hqs);
  run_batch_trials(state, hqs, strategy, 0.5, SimdIsa::kAuto);
}
BENCHMARK(BM_ProbeTrials_RandBatch_IrHqs27);

void BM_ProbeTrials_RandBatch_Cw55(benchmark::State& state) {
  const CrumblingWall wall = CrumblingWall::triang(10);
  const RProbeCW strategy(wall);
  run_batch_trials(state, wall, strategy, 0.5, SimdIsa::kAuto);
}
BENCHMARK(BM_ProbeTrials_RandBatch_Cw55);

// Engine-level counterpart: estimate_ppc end to end -- the generic run()
// lambda and the engine's scalar per-trial loop, both validating every
// witness (validation is what routes estimate_ppc to the scalar loop, so
// the two sides do the same work), and the bit-sliced batch kernel the
// engine takes whenever validation is off.
void BM_EstimatePpcGenericLambda(benchmark::State& state) {
  const MajoritySystem maj(63);
  const ProbeMaj strategy(maj);
  EngineOptions options;
  options.trials = 16384;
  options.threads = 1;
  options.seed = 23;
  const ParallelEstimator engine(options);
  for (auto _ : state) {
    const auto stats = engine.run([&](Rng& rng) {
      const Coloring c = sample_iid_coloring(63, 0.5, rng);
      return run_probe_trial(maj, strategy, c, true, rng);
    });
    benchmark::DoNotOptimize(stats.mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.trials));
}
BENCHMARK(BM_EstimatePpcGenericLambda);

void BM_EstimatePpcHotPath(benchmark::State& state) {
  const MajoritySystem maj(63);
  const ProbeMaj strategy(maj);
  EngineOptions options;
  options.trials = 16384;
  options.threads = 1;
  options.seed = 23;
  options.validate_witnesses = true;  // routes to the scalar per-trial loop
  const ParallelEstimator engine(options);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.estimate_ppc(maj, strategy, 0.5).mean());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.trials));
}
BENCHMARK(BM_EstimatePpcHotPath);

void BM_EstimatePpcBitSliced(benchmark::State& state) {
  const MajoritySystem maj(63);
  const ProbeMaj strategy(maj);
  EngineOptions options;
  options.trials = 16384;
  options.threads = 1;
  options.seed = 23;
  const ParallelEstimator engine(options);  // no validation: the kernel
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.estimate_ppc(maj, strategy, 0.5).mean());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.trials));
}
BENCHMARK(BM_EstimatePpcBitSliced);

// --- Estimation-engine microbenchmarks -----------------------------------
// These guard the engine's own overheads: how batch size trades RNG-stream
// setup against merge frequency, what the ordered merge costs by itself,
// and how throughput scales with the worker-thread count.  CI runs them
// with --benchmark_format=json into the bench-smoke artifact.

void BM_EngineBatchSize(benchmark::State& state) {
  const MajoritySystem maj(101);
  const ProbeMaj strategy(maj);
  EngineOptions options;
  options.trials = 16384;
  options.threads = 1;
  options.batch_size = static_cast<std::size_t>(state.range(0));
  options.seed = 7;
  const ParallelEstimator engine(options);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.estimate_ppc(maj, strategy, 0.5));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.trials));
}
BENCHMARK(BM_EngineBatchSize)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EngineMergeOverhead(benchmark::State& state) {
  // The merge reduction in isolation: fold `range` per-batch exact-moment
  // accumulators, each holding 1024 probe counts, in batch order as the
  // merge frontier does, then convert once.
  const std::size_t batches = static_cast<std::size_t>(state.range(0));
  std::vector<CountMoments> parts(batches);
  Rng rng(11);
  for (auto& part : parts)
    for (int i = 0; i < 1024; ++i)
      part.add(static_cast<std::uint32_t>(rng.below(64)));
  for (auto _ : state) {
    CountMoments merged;
    for (const auto& part : parts) merged.merge(part);
    benchmark::DoNotOptimize(merged.stats().mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batches));
}
BENCHMARK(BM_EngineMergeOverhead)->Arg(16)->Arg(256)->Arg(4096);

// The per-super-block reduction layer on its own: one Maj63 super-block
// (64*W lanes at p = 1/2, W = 4) already scanned, then reduced.
// PlaneFold is the engine's fold_probe_planes into exact moments;
// GatherWelford is the reduction it replaced -- one probe_count gather and
// one floating-point Welford add per lane -- kept here only as the
// baseline.  items_per_second is trials/sec of the reduction alone.
template <typename Reduce>
void run_engine_reduce(benchmark::State& state, Reduce reduce) {
  const MajoritySystem maj(63);
  const ProbeMaj strategy(maj);
  TrialWorkspace ws(63);
  BatchTrialBlock& block = ws.batch_block();
  block.configure(resolve_simd_kernels(SimdIsa::kAuto), 63);
  const std::size_t lanes = block.lane_capacity();
  Rng rng(29);
  std::uint64_t* masks = ws.coloring_masks(lanes);
  sample_iid_coloring_words(masks, lanes, 63, 0.5, rng);
  block.load(masks, lanes);
  strategy.run_batch(block, rng);
  for (auto _ : state) reduce(block, lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}

void BM_EngineReduce_PlaneFold(benchmark::State& state) {
  run_engine_reduce(state, [](const BatchTrialBlock& block, std::size_t) {
    CountMoments moments;
    block.fold_probe_counts(moments);
    benchmark::DoNotOptimize(moments);
  });
}
BENCHMARK(BM_EngineReduce_PlaneFold);

void BM_EngineReduce_GatherWelford(benchmark::State& state) {
  run_engine_reduce(state, [](const BatchTrialBlock& block,
                              std::size_t lanes) {
    RunningStats stats;
    for (std::size_t lane = 0; lane < lanes; ++lane)
      stats.add(static_cast<double>(block.probe_count(lane)));
    benchmark::DoNotOptimize(stats);
  });
}
BENCHMARK(BM_EngineReduce_GatherWelford);

void BM_EngineThreadScaling(benchmark::State& state) {
  const MajoritySystem maj(1001);
  const ProbeMaj strategy(maj);
  EngineOptions options;
  options.trials = 8192;
  options.threads = static_cast<std::size_t>(state.range(0));
  options.seed = 13;
  const ParallelEstimator engine(options);
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.estimate_ppc(maj, strategy, 0.5));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.trials));
}
BENCHMARK(BM_EngineThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int counter = 0;
    const int events = static_cast<int>(state.range(0));
    for (int i = 0; i < events; ++i)
      simulator.schedule(static_cast<double>(i % 10), [&counter] { ++counter; });
    simulator.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventChurn)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
