// Reusable worker thread pool shared by the parallel engines.
//
// ThreadPool owns size()-1 long-lived background threads parked on a
// condition variable; the calling thread always participates as the
// size()-th worker, so a pool of size 1 runs everything inline with no
// threads spawned at all.  Two primitives:
//
//  * run_workers(fn): every worker (background threads + caller) runs the
//    same callable once, exactly like the per-run worker loops the
//    Monte-Carlo engine used to spawn.  ParallelEstimator::run() is built
//    on this.
//  * parallel_for(begin, end, grain, body): the index range is carved into
//    grain-sized chunks handed to workers through an atomic cursor.  Chunk
//    boundaries depend only on (begin, end, grain), and every chunk writes
//    its own results, so callers that keep per-index output (the exact DP
//    kernel) are bit-identical for any pool size.
//
// The pool is reusable, and ThreadPool::local() keeps one per calling
// thread alive across calls: the Monte-Carlo engine (one run_workers per
// estimate) and the exact DP kernel (one parallel_for per induction level)
// both take their pool from it, so a thread pays the spawn cost once, not
// once per ~1 ms estimate or per solve.  The cached pool lives until its
// thread exits, or until that thread asks for a different size.
//
// Fork: a child process gets the parent's memory but none of its pool
// threads, so it must not use a pool it inherited.  The sweep layer
// (net/socket_sweep.cpp) forks its workers and immediately execvp()s them,
// so no child ever runs on an inherited pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qps {

class ThreadPool {
 public:
  /// A pool executing work on `threads` workers in total (the caller
  /// counts as one); 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count, including the calling thread.
  std::size_t size() const { return threads_.size() + 1; }

  /// Resolves a requested thread count the way the pool constructor does.
  static std::size_t resolve_threads(std::size_t threads);

  /// The calling thread's cached pool of resolve_threads(threads) workers:
  /// built on first use, rebuilt only when the resolved size changes.
  /// Asked for again from inside one of its own jobs on the calling
  /// thread, it returns the running pool unchanged, and a nested dispatch
  /// on it runs inline (see run_workers).
  static ThreadPool& local(std::size_t threads);

  /// Runs `fn` once on every worker and blocks until all return.  The
  /// first exception thrown by any worker is rethrown in the caller after
  /// the barrier.  Called again from inside `fn` on the calling thread, it
  /// runs the inner `fn` inline, once.
  void run_workers(const std::function<void()>& fn);

  /// Runs `body(chunk_begin, chunk_end)` over [begin, end) in chunks of at
  /// most `grain` indices, distributed dynamically across the workers.
  /// Blocks until the whole range is done; rethrows the first exception.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();
  void run_job_and_finish();

  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void()>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  bool dispatching_ = false;  // a run_workers is in flight (caller's view)
  std::exception_ptr first_error_;
};

}  // namespace qps
