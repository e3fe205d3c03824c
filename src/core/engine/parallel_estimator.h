// Parallel Monte-Carlo estimation engine.
//
// ParallelEstimator shards a trial budget into fixed-size batches and runs
// the batches on the calling thread's cached worker pool (ThreadPool::local,
// core/engine/parallel_for.h), the same pool the exact DP kernel uses; it
// is built on a thread's first call and reused by every later one of the
// same size.  Determinism is the design
// center: batch k always draws from the RNG stream derived from
// (options.seed, k), and batch results are merged strictly in batch-index
// order, so the returned statistics -- and the early-stop / throw decisions
// -- are bit-identical for any thread count, including threads=1.
//
// Every trial yields an integer probe count, and every path reduces them
// into exact integer moments (CountMoments, util/stats.h): count, sum, sum
// of squares, min and max.  The bit-sliced path folds them straight out of
// its probe bit planes; the scalar paths add one count at a time; either
// way the batch merge is integer addition and the RunningStats a caller
// gets is converted once from the exact totals.  The trial budget is
// checked against CountMoments::kMaxCount when the engine is constructed.
// estimate_ppc samples each batch's colorings lane-major with
// sample_iid_lane_words (core/coloring.h): batch k's rng first draws
// G * n words, G = ceil(count/64) -- word (g, e) is element e across
// trials 64g .. 64g+63.  One draw per word for every 0 < p < 1, and
// comonotone in p, so two points that share a seed and differ only in p
// see coupled colorings and identically placed strategy draws.  Then the
// strategy draws (stream v6):
//  * a batch-capable randomized strategy (R_Probe_Maj, Random_Order,
//    R_Probe_Tree, R_Probe_HQS, IR_Probe_HQS, R_Probe_CW) draws its
//    choices lane-major for groups g = 0 .. G-1 in order, one word per
//    choice bit per group with rejection rounds until all 64 lanes accept
//    (ProbeStrategy::draw_lane_choices, core/engine/batch_kernel.h);
//    lanes beyond the batch's count are drawn and ignored;
//  * every other strategy draws per trial, in trial order, through
//    run_with().
// estimate_ppc takes the bit-sliced batch kernels (core/engine/
// batch_kernel.h) whenever the strategy has one at this n
// (ProbeStrategy::supports_batch) and witness validation is off: they load
// the coloring words as their element rows and draw each group's choices
// into their own layout.  Everything else -- strategies without a kernel
// (Greedy_Candidate), and validation, which needs materialized witnesses
// -- runs the scalar per-trial loop: it transposes the words into
// per-trial rows and runs each trial from its lane of the same groups
// (ProbeStrategy::run_lane), or through run_with() for the rest.  Both
// paths see the same trials with the same choices, so their per-trial
// probe counts, and the merged statistics, are bit-identical.
// kResultStreamVersion names the result stream these rules produce; the
// sweep layer mixes it into every spec fingerprint.
//
// Early stopping: when `target_sem > 0`, merging stops at the first batch
// prefix whose standard error of the mean reaches the target (after at
// least `min_trials` samples).  Workers racing ahead of the stop point may
// compute extra batches; those are discarded, never merged, so the result
// is still a pure function of the seed and the options.
#pragma once

#include <cstdint>
#include <functional>

#include "core/coloring.h"
#include "core/strategy.h"
#include "quorum/quorum_system.h"
#include "util/rng.h"
#include "util/stats.h"

namespace qps {

/// Version of the engine's result stream: which trials a (seed, options)
/// pair samples and how their probe counts reduce to statistics.  Bump it
/// with any change to either, so results of different versions never mix
/// (SweepSpec::fingerprint includes it).  Version 2: exact integer moments.
/// Version 3: the MSB-first, early-exit coloring sampler (one draw per
/// mask word, p-coupled; see sample_iid_coloring_words).  Version 4: the
/// same sampler drawn lane-major, one word per element per 64 trials (see
/// sample_iid_lane_words).  Version 5: the randomized strategies' choices
/// drawn lane-major too, 64 trials per word (draw_lane_choices).  Version
/// 6: IR_Probe_HQS draws every gate's child order up front, lane-major, as
/// R_Probe_HQS does, instead of shuffling per trial at each gate's first
/// visit; only its own points move.
inline constexpr std::uint32_t kResultStreamVersion = 6;

struct EngineOptions {
  /// Total Monte-Carlo trial budget (upper bound when early-stop is on).
  std::size_t trials = 1000;
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Trials per batch: the unit of determinism and of work distribution.
  /// Results depend on this value (it fixes the RNG stream layout) but
  /// never on the thread count.
  std::size_t batch_size = 1024;
  /// Stop once the merged standard error of the mean reaches this value;
  /// 0 disables early stopping and the full budget runs.
  double target_sem = 0.0;
  /// Early stop is not considered before this many merged trials.
  std::size_t min_trials = 1000;
  /// Validate every returned witness against the ground truth; failures
  /// throw std::logic_error (deterministically, see above).  The
  /// bit-sliced kernels never build witnesses, so validation also routes
  /// estimate_ppc through the scalar per-trial loop.
  bool validate_witnesses = false;
  /// Root seed for the per-batch RNG streams.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

class ParallelEstimator {
 public:
  explicit ParallelEstimator(EngineOptions options);

  /// One Monte-Carlo sample -- an integer count, such as the probes of one
  /// run; draws all randomness from the supplied batch-local generator.
  using Trial = std::function<std::uint32_t(Rng&)>;

  /// Runs the trial budget through the worker pool and returns the merged
  /// statistics.  Exceptions thrown by `trial` propagate, and which
  /// exception surfaces is deterministic (first failing batch in index
  /// order).
  RunningStats run(const Trial& trial) const;

  /// PPC_p estimation (Section 3 model): i.i.d. element failures with
  /// probability p, fresh coloring per trial.
  RunningStats estimate_ppc(const QuorumSystem& system,
                            const ProbeStrategy& strategy, double p) const;

  /// Expected probes of `strategy` on one fixed coloring (the inner
  /// expectation of the Section 4 randomized model).
  RunningStats expected_probes_on(const QuorumSystem& system,
                                  const ProbeStrategy& strategy,
                                  const Coloring& coloring) const;

  const EngineOptions& options() const { return options_; }

  /// The worker count `run()` will actually use (resolves threads=0 and
  /// never exceeds the number of batches).
  std::size_t resolved_threads() const;

 private:
  /// Evaluates trials [begin, end) of one batch into `out`, drawing only
  /// from `rng` (the batch's stream).
  using BatchFn =
      std::function<void(std::size_t begin, std::size_t end, Rng& rng,
                         CountMoments& out)>;
  /// Called once per worker thread that claims a batch, so the returned
  /// BatchFn can own per-worker state (a TrialWorkspace); may be invoked
  /// concurrently.
  using BatchFnFactory = std::function<BatchFn()>;

  /// The batching/merging/early-stop engine shared by run() and the
  /// workspace-backed hot paths.
  RunningStats run_batches(const BatchFnFactory& make_batch_fn) const;

  EngineOptions options_;
};

/// One probe run of `strategy` against `coloring` on a fresh session,
/// through ProbeStrategy::run(): a self-contained trial for
/// ParallelEstimator::run().  Returns the probe count; throws
/// std::logic_error when validation is on and the witness is bad.
std::uint32_t run_probe_trial(const QuorumSystem& system,
                              const ProbeStrategy& strategy,
                              const Coloring& coloring, bool validate,
                              Rng& rng);

}  // namespace qps
