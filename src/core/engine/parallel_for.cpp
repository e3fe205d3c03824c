#include "core/engine/parallel_for.h"

#include <atomic>
#include <memory>

namespace qps {

std::size_t ThreadPool::resolve_threads(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  return threads;
}

ThreadPool& ThreadPool::local(std::size_t threads) {
  thread_local std::unique_ptr<ThreadPool> pool;
  const std::size_t total = resolve_threads(threads);
  // A pool in the middle of a dispatch is kept whatever its size: the
  // nested call runs inline on it anyway.
  if (!pool || (pool->size() != total && !pool->dispatching_)) {
    pool.reset();  // join the old workers before spawning the new ones
    pool = std::make_unique<ThreadPool>(total);
  }
  return *pool;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t total = resolve_threads(threads);
  threads_.reserve(total - 1);
  for (std::size_t i = 0; i + 1 < total; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    const std::function<void()>* job = job_;
    lock.unlock();

    try {
      (*job)();
    } catch (...) {
      std::lock_guard<std::mutex> guard(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }

    {
      std::lock_guard<std::mutex> guard(mutex_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::run_workers(const std::function<void()>& fn) {
  if (threads_.empty() || dispatching_) {
    fn();  // pool of one, or a nested dispatch: run inline
    return;
  }
  dispatching_ = true;
  struct Clear {
    bool& flag;
    ~Clear() { flag = false; }
  } clear{dispatching_};

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    pending_ = threads_.size();
    first_error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();

  // The caller is a worker too.
  try {
    fn();
  } catch (...) {
    std::lock_guard<std::mutex> guard(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  if (threads_.empty() || end - begin <= grain) {
    for (std::size_t i = begin; i < end; i += grain)
      body(i, i + grain < end ? i + grain : end);
    return;
  }

  std::atomic<std::size_t> cursor{begin};
  run_workers([&] {
    for (;;) {
      const std::size_t chunk_begin =
          cursor.fetch_add(grain, std::memory_order_relaxed);
      if (chunk_begin >= end) return;
      const std::size_t chunk_end =
          chunk_begin + grain < end ? chunk_begin + grain : end;
      body(chunk_begin, chunk_end);
    }
  });
}

}  // namespace qps
