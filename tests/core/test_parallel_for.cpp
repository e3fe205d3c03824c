// The reusable worker pool behind the Monte-Carlo engine and the exact DP
// kernel.
#include "core/engine/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms/probe_maj.h"
#include "core/engine/parallel_estimator.h"
#include "quorum/majority.h"

namespace qps {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), 17,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                          hits[i].fetch_add(1, std::memory_order_relaxed);
                      });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
  }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range no larger than one grain runs inline as a single chunk.
  std::vector<int> seen;
  pool.parallel_for(3, 7, 100, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      seen.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5, 6}));
}

TEST(ThreadPool, RunWorkersRunsOnEveryWorker) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> runs{0};
  pool.run_workers([&] { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 3);
}

TEST(ThreadPool, PoolIsReusableAcrossDispatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 100, 7, [&](std::size_t begin, std::size_t end) {
      long local = 0;
      for (std::size_t i = begin; i < end; ++i)
        local += static_cast<long>(i);
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(0, 100, 3,
                          [&](std::size_t begin, std::size_t) {
                            if (begin >= 50)
                              throw std::runtime_error("chunk failed");
                          }),
        std::runtime_error);
    // The pool survives a throwing dispatch.
    std::atomic<int> ok{0};
    pool.parallel_for(0, 10, 1,
                      [&](std::size_t, std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 10);
  }
}

TEST(ThreadPool, ResolveThreadsFallsBackToHardware) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_threads(5), 5u);
}

TEST(ThreadPool, LocalPoolIsCachedPerThreadAndResizedOnDemand) {
  ThreadPool& four = ThreadPool::local(4);
  EXPECT_EQ(four.size(), 4u);
  EXPECT_EQ(&ThreadPool::local(4), &four);
  EXPECT_EQ(ThreadPool::local(2).size(), 2u);
  EXPECT_EQ(ThreadPool::local(0).size(), ThreadPool::resolve_threads(0));
  // Another thread gets a pool of its own.
  const ThreadPool* other = nullptr;
  std::thread([&] { other = &ThreadPool::local(3); }).join();
  EXPECT_NE(other, &ThreadPool::local(3));
}

TEST(ThreadPool, NestedDispatchOnTheCallingThreadRunsInline) {
  ThreadPool& pool = ThreadPool::local(3);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  const std::thread::id caller = std::this_thread::get_id();
  pool.run_workers([&] {
    ++outer;
    if (std::this_thread::get_id() == caller)
      pool.run_workers([&] { ++inner; });
  });
  EXPECT_EQ(outer.load(), 3);
  EXPECT_EQ(inner.load(), 1);
  // Asking for another size mid-dispatch keeps the running pool.
  pool.run_workers([&] {
    if (std::this_thread::get_id() == caller) {
      EXPECT_EQ(&ThreadPool::local(2), &pool);
    }
  });
  // The pool is still whole afterwards.
  std::atomic<int> again{0};
  pool.run_workers([&] { ++again; });
  EXPECT_EQ(again.load(), 3);
}

void expect_same_stats(const RunningStats& got, const RunningStats& want,
                       const std::string& label) {
  EXPECT_EQ(got.count(), want.count()) << label;
  EXPECT_EQ(got.mean(), want.mean()) << label;
  EXPECT_EQ(got.variance(), want.variance()) << label;
  EXPECT_EQ(got.min(), want.min()) << label;
  EXPECT_EQ(got.max(), want.max()) << label;
}

RunningStats estimate_on(const QuorumSystem& system,
                         const ProbeStrategy& strategy, std::size_t threads,
                         bool validate = false) {
  EngineOptions options;
  options.trials = 3000;
  options.batch_size = 256;
  options.threads = threads;
  options.seed = 99;
  options.validate_witnesses = validate;
  return ParallelEstimator(options).estimate_ppc(system, strategy, 0.4);
}

TEST(ThreadPool, ReusedEnginePoolMatchesFreshThreads) {
  // Repeated estimates on one thread reuse (and resize) its cached pool;
  // each must equal the same estimate on a fresh thread, whose pool is
  // new.  The validated run goes through the scalar path.
  const MajoritySystem maj(21);
  const RProbeMaj strategy(maj);
  for (const std::size_t threads : {1u, 4u, 2u, 4u}) {
    for (const bool validate : {false, true}) {
      RunningStats fresh;
      std::thread([&] {
        fresh = estimate_on(maj, strategy, threads, validate);
      }).join();
      expect_same_stats(estimate_on(maj, strategy, threads, validate), fresh,
                        "threads=" + std::to_string(threads));
    }
  }
}

TEST(ThreadPool, EnginePoolSurvivesAThrowingRun) {
  // A validated run of a strategy with a bad witness throws out of the
  // pool; the next estimate on the same thread and pool must still run
  // and match a fresh thread's.
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
  };
  const MajoritySystem maj(21);
  const Broken broken;
  const ProbeMaj good(maj);
  EXPECT_THROW(estimate_on(maj, broken, 4, true), std::logic_error);
  RunningStats fresh;
  std::thread([&] { fresh = estimate_on(maj, good, 4); }).join();
  expect_same_stats(estimate_on(maj, good, 4), fresh, "after a throw");
  EXPECT_THROW(estimate_on(maj, broken, 4, true), std::logic_error);
  expect_same_stats(estimate_on(maj, good, 4, true), fresh,
                    "validated, after a throw");
}

}  // namespace
}  // namespace qps
