#include "core/engine/parallel_estimator.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <vector>

#include "core/engine/parallel_for.h"
#include "core/engine/simd.h"
#include "core/engine/trial_workspace.h"
#include "core/fault/fault.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/probe_session.h"
#include "core/witness.h"
#include "util/require.h"

namespace qps {

namespace {

// Engine metrics, registered once.  All are per-batch (a batch is ~1024
// trials), so the per-trial overhead of metrics is a fraction of an atomic.
struct EngineMetrics {
  obs::Counter& trials =
      obs::MetricsRegistry::instance().counter("engine/trials");
  obs::Counter& batches =
      obs::MetricsRegistry::instance().counter("engine/batches");
  obs::Counter& early_stops =
      obs::MetricsRegistry::instance().counter("engine/early_stops");
  obs::Histogram& merge_wait_us =
      obs::MetricsRegistry::instance().histogram("engine/merge_wait_us");

  static EngineMetrics& get() {
    static EngineMetrics metrics;
    return metrics;
  }
};

// Shared state of one run(): per-batch results plus the in-order merge
// frontier.  Workers deposit finished batches; whoever completes the batch
// at the frontier advances the merge (under the mutex), which is the only
// place results are combined or the stop decision is taken -- keeping both
// independent of scheduling.
struct RunState {
  explicit RunState(std::size_t num_batches)
      : results(num_batches), errors(num_batches), done(num_batches, 0) {}

  std::atomic<std::size_t> next_batch{0};
  std::atomic<bool> stop{false};

  std::mutex mutex;
  std::vector<CountMoments> results;
  std::vector<std::exception_ptr> errors;
  std::vector<char> done;
  std::size_t merged_upto = 0;  // batches [0, merged_upto) are merged
  CountMoments merged;
  std::exception_ptr first_error;
};

/// A finished trial's probe count, after validating its witness when
/// `validate` is set.
std::uint32_t finish_trial(const QuorumSystem& system,
                           const ProbeStrategy& strategy,
                           const Coloring& coloring, const Witness& witness,
                           const ProbeSession& session, bool validate) {
  if (validate) {
    const std::string error =
        validate_witness(system, coloring, witness, session.probed());
    if (!error.empty())
      throw std::logic_error(strategy.name() +
                             " returned a bad witness: " + error);
  }
  return static_cast<std::uint32_t>(session.probe_count());
}

/// One hot-path trial: reset the session, run the strategy through the
/// scratch-aware entry point, optionally validate.  Allocation-free in the
/// steady state for n <= 64.
std::uint32_t run_workspace_trial(TrialWorkspace& workspace,
                                  const Coloring& coloring,
                                  const QuorumSystem& system,
                                  const ProbeStrategy& strategy, bool validate,
                                  Rng& rng) {
  ProbeSession& session = workspace.begin_trial(coloring);
  const Witness witness = strategy.run_with(workspace, session, rng);
  return finish_trial(system, strategy, coloring, witness, session, validate);
}

}  // namespace

ParallelEstimator::ParallelEstimator(EngineOptions options)
    : options_(options) {
  QPS_REQUIRE(options_.trials > 0, "need at least one trial");
  QPS_REQUIRE(options_.batch_size > 0, "batch size must be positive");
  QPS_REQUIRE(options_.target_sem >= 0.0, "target SEM must be non-negative");
  // The one exactness check of a run: no trial or merge re-checks it.
  CountMoments::require_budget(options_.trials);
}

std::size_t ParallelEstimator::resolved_threads() const {
  const std::size_t threads = ThreadPool::resolve_threads(options_.threads);
  const std::size_t num_batches =
      (options_.trials + options_.batch_size - 1) / options_.batch_size;
  return threads < num_batches ? threads : num_batches;
}

RunningStats ParallelEstimator::run_batches(
    const BatchFnFactory& make_batch_fn) const {
  const std::size_t trials = options_.trials;
  const std::size_t batch_size = options_.batch_size;
  const std::size_t num_batches = (trials + batch_size - 1) / batch_size;
  const std::size_t threads = resolved_threads();

  RunState state(num_batches);

  // True once the merged prefix satisfies the early-stop target.  Called
  // only under the mutex with a frontier that advances in index order, so
  // the answer is a function of the batch results alone.
  const auto stop_satisfied = [&](const CountMoments& merged) {
    return options_.target_sem > 0.0 && merged.count() >= options_.min_trials &&
           merged.stats().sem() <= options_.target_sem;
  };

  EngineMetrics& metrics = EngineMetrics::get();
  const auto worker = [&] {
    // Per-worker state (e.g. the trial workspace) lives in the batch
    // function, made once per thread -- and only by a worker that claims a
    // batch, so idle workers of a larger pool cost nothing.
    BatchFn batch_fn;
    for (;;) {
      if (state.stop.load(std::memory_order_relaxed)) return;
      const std::size_t k =
          state.next_batch.fetch_add(1, std::memory_order_relaxed);
      if (k >= num_batches) return;
      if (!batch_fn) batch_fn = make_batch_fn();

      CountMoments batch;
      std::exception_ptr error;
      try {
        const std::size_t begin = k * batch_size;
        const std::size_t end =
            begin + batch_size < trials ? begin + batch_size : trials;
        Rng rng = Rng::for_stream(options_.seed, k);
        QPS_TRACE_SPAN("engine/batch", "engine");
        batch_fn(begin, end, rng, batch);
        metrics.batches.increment();
        metrics.trials.add(end - begin);
      } catch (...) {
        error = std::current_exception();
      }

      // The merge-wait histogram records how long workers queue on the
      // merge mutex.
      std::uint64_t wait_us = 0;
      if constexpr (obs::kMetricsCompiled) {
        const std::uint64_t t0 = obs::monotonic_us();
        state.mutex.lock();
        wait_us = obs::monotonic_us() - t0;
      } else {
        state.mutex.lock();
      }
      std::lock_guard<std::mutex> lock(state.mutex, std::adopt_lock);
      if constexpr (obs::kMetricsCompiled)
        metrics.merge_wait_us.record(wait_us);
      state.results[k] = batch;
      state.errors[k] = error;
      state.done[k] = 1;
      // Once the stop decision fired, the merge frontier is frozen: batches
      // completing after it are deposited but never merged.
      if (state.stop.load(std::memory_order_relaxed)) return;
      while (state.merged_upto < num_batches && state.done[state.merged_upto]) {
        const std::size_t i = state.merged_upto++;
        if (state.errors[i]) {
          state.first_error = state.errors[i];
          state.stop.store(true, std::memory_order_relaxed);
          return;
        }
        state.merged.merge(state.results[i]);
        if (stop_satisfied(state.merged)) {
          metrics.early_stops.increment();
          state.stop.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  };

  // The calling thread's cached pool runs `worker` on every worker (the
  // calling thread included).  It is sized by the requested thread count,
  // not by this run's batch count, so calls of any size share it; a run
  // one worker can cover stays inline.
  if (threads == 1)
    worker();
  else
    ThreadPool::local(options_.threads).run_workers(worker);

  if (state.first_error) std::rethrow_exception(state.first_error);
  return state.merged.stats();
}

RunningStats ParallelEstimator::run(const Trial& trial) const {
  QPS_REQUIRE(static_cast<bool>(trial), "run() needs a trial function");
  return run_batches([&trial] {
    return [&trial](std::size_t begin, std::size_t end, Rng& rng,
                    CountMoments& out) {
      for (std::size_t t = begin; t < end; ++t) out.add(trial(rng));
    };
  });
}

RunningStats ParallelEstimator::estimate_ppc(const QuorumSystem& system,
                                             const ProbeStrategy& strategy,
                                             double p) const {
  QPS_FAULT_POINT("engine/estimate");
  const bool validate = options_.validate_witnesses;
  const std::size_t n = system.universe_size();
  if (n == 0) {
    return run([&](Rng& rng) {
      const Coloring coloring = sample_iid_coloring(n, p, rng);
      return run_probe_trial(system, strategy, coloring, validate, rng);
    });
  }
  // Every batch samples its colorings lane-major (sample_iid_lane_words:
  // one word per element per 64 trials), on both paths, and then -- for a
  // batch-capable randomized strategy -- draws the strategy's choices
  // lane-major, one 64-lane group after another (result stream v5).
  // Bit-sliced batch kernels (64*W trials per super-block, any universe
  // size) load the coloring words as their element rows and draw each
  // group's choices into their own layout; the scalar path draws the same
  // groups and runs each trial from its lane, so the per-trial probe
  // counts -- and therefore the merged statistics -- are bit-identical at
  // any lane width.  Validation needs materialized witnesses, which the
  // kernels never build: that combination runs the scalar path.
  const bool batch = strategy.supports_batch(n);
  if (!validate && batch) {
    const SimdKernels& kernels = resolve_simd_kernels(SimdIsa::kAuto);
    return run_batches([&strategy, &kernels, p, n] {
      auto workspace = std::make_shared<TrialWorkspace>(n);
      return [workspace, &strategy, &kernels, p, n](
                 std::size_t begin, std::size_t end, Rng& rng,
                 CountMoments& out) {
        TrialWorkspace& ws = *workspace;
        const std::size_t count = end - begin;
        std::uint64_t* lanes = ws.lane_words(count);
        sample_iid_lane_words(lanes, count, n, p, rng);
        ws.batch_block().configure(kernels, n);
        run_bit_sliced_trials(strategy, ws.batch_block(), lanes, count, n,
                              rng, out);
      };
    });
  }
  // Zero-allocation scalar hot path: one workspace per worker, the batch's
  // lane words sampled up front and transposed into per-trial rows,
  // colorings filled in place.  Strategies with lane choices run each
  // trial from its lane of the group drawn at the group's first trial;
  // the rest draw per trial from the batch's rng.
  const std::size_t choice_words = batch ? strategy.lane_choice_words() : 0;
  return run_batches([&system, &strategy, p, validate, n, choice_words] {
    auto workspace = std::make_shared<TrialWorkspace>(n);
    return [workspace, &system, &strategy, p, validate, n, choice_words](
               std::size_t begin, std::size_t end, Rng& rng,
               CountMoments& out) {
      TrialWorkspace& ws = *workspace;
      const std::size_t count = end - begin;
      const std::size_t stride = (n + 63) / 64;
      std::uint64_t* lanes = ws.lane_words(count);
      sample_iid_lane_words(lanes, count, n, p, rng);
      std::uint64_t* masks = ws.coloring_masks(count);
      transpose_lane_words_to_rows(lanes, count, n, 1, n, masks);
      std::uint64_t* choices = ws.lane_choices(choice_words);
      for (std::size_t i = 0; i < count; ++i) {
        ws.coloring().assign_greens_words(masks + i * stride);
        ProbeSession& session = ws.begin_trial(ws.coloring());
        Witness witness;
        if (choice_words == 0) {
          witness = strategy.run_with(ws, session, rng);
        } else {
          if (i % 64 == 0) strategy.draw_lane_choices(rng, choices);
          witness = strategy.run_lane(ws, session, choices, i % 64);
        }
        out.add(finish_trial(system, strategy, ws.coloring(), witness,
                             session, validate));
      }
    };
  });
}

RunningStats ParallelEstimator::expected_probes_on(
    const QuorumSystem& system, const ProbeStrategy& strategy,
    const Coloring& coloring) const {
  const bool validate = options_.validate_witnesses;
  const std::size_t n = system.universe_size();
  // One workspace per worker, any universe size; draw-for-draw identical
  // to run() over run_probe_trial, since the strategy's stream is all
  // there is.
  return run_batches([&system, &strategy, &coloring, validate, n] {
    auto workspace = std::make_shared<TrialWorkspace>(n);
    return [workspace, &system, &strategy, &coloring, validate](
               std::size_t begin, std::size_t end, Rng& rng,
               CountMoments& out) {
      for (std::size_t t = begin; t < end; ++t)
        out.add(run_workspace_trial(*workspace, coloring, system, strategy,
                                    validate, rng));
    };
  });
}

std::uint32_t run_probe_trial(const QuorumSystem& system,
                              const ProbeStrategy& strategy,
                              const Coloring& coloring, bool validate,
                              Rng& rng) {
  ProbeSession session(coloring);
  const Witness witness = strategy.run(session, rng);
  return finish_trial(system, strategy, coloring, witness, session, validate);
}

}  // namespace qps
