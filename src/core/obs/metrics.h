// Low-overhead metrics for the engine, sweep, and distributed fabric.
//
// MetricsRegistry is a process-global name -> instrument table holding
// three instrument kinds:
//
//  * Counter -- a monotonically increasing sum, sharded across
//    cache-line-padded atomics (one shard per writer thread, assigned on
//    first use) so the Monte-Carlo hot path increments without ever
//    bouncing a cache line between workers.  Reads merge the shards.
//  * Gauge -- a single signed last-written value (queue depths, frontier
//    bytes); writers overwrite, readers load.
//  * Histogram -- fixed log2 buckets over uint64 samples (bucket i holds
//    the values of bit width i, bucket 0 holds zero, the last bucket is
//    the overflow sink), plus a running count and sum.  Recording is two
//    relaxed fetch_adds: safe from any thread, never allocating.
//
// Instruments register on first use (normally from a function-local static
// reference, i.e. at first call or static init) and live forever; the
// returned references stay valid for the life of the process, so hot paths
// hold plain references and pay no lookup.  snapshot_json() renders every
// instrument through the util/json conventions for --metrics-json dumps.
//
// Kill switches: compiling with QPS_OBS_METRICS=0 turns every write into a
// no-op the optimizer deletes (the registry and accessors stay, so call
// sites need no #ifdefs); there is deliberately no runtime switch on the
// write path -- a branch per increment would cost more than the increment.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#ifndef QPS_OBS_METRICS
#define QPS_OBS_METRICS 1
#endif

namespace qps::obs {

/// True when metric writes are compiled in (QPS_OBS_METRICS != 0).
inline constexpr bool kMetricsCompiled = QPS_OBS_METRICS != 0;

/// Monotonic microseconds since an arbitrary process-local epoch; the
/// clock behind every duration instrument and the trace recorder.
std::uint64_t monotonic_us() noexcept;

/// Writer shard of the calling thread, assigned round-robin on first use;
/// shared by every Counter so each thread costs one TLS slot total.
std::size_t counter_shard() noexcept;

inline constexpr std::size_t kCounterShards = 16;
inline constexpr std::size_t kCacheLineBytes = 64;

struct alignas(kCacheLineBytes) PaddedCounterCell {
  std::atomic<std::uint64_t> value{0};
};

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta) noexcept {
    if constexpr (kMetricsCompiled)
      shards_[counter_shard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
    else
      (void)delta;
  }
  void increment() noexcept { add(1); }

  /// The merged total over all writer shards.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const PaddedCounterCell& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  PaddedCounterCell shards_[kCounterShards];
};

class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t value) noexcept {
    if constexpr (kMetricsCompiled)
      value_.value.store(value, std::memory_order_relaxed);
    else
      (void)value;
  }
  void add(std::int64_t delta) noexcept {
    if constexpr (kMetricsCompiled)
      value_.value.fetch_add(delta, std::memory_order_relaxed);
    else
      (void)delta;
  }

  std::int64_t value() const noexcept {
    return value_.value.load(std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  struct alignas(kCacheLineBytes) Cell {
    std::atomic<std::int64_t> value{0};
  };
  std::string name_;
  Cell value_;
};

class Histogram {
 public:
  /// Bucket 0 holds the value 0, bucket i in [1, kBuckets-2] holds the
  /// values of bit width i (i.e. [2^(i-1), 2^i - 1]), and the last bucket
  /// is the overflow sink for everything of bit width >= kBuckets-1.
  static constexpr std::size_t kBuckets = 40;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static std::size_t bucket_index(std::uint64_t value) noexcept {
    if (value == 0) return 0;
    std::size_t width = 0;
    while (value != 0) {
      ++width;
      value >>= 1;
    }
    return width < kBuckets - 1 ? width : kBuckets - 1;
  }
  /// Smallest value landing in bucket `i` (0 for the zero bucket).
  static std::uint64_t bucket_lower_bound(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void record(std::uint64_t value) noexcept {
    if constexpr (kMetricsCompiled) {
      buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
      sum_.fetch_add(value, std::memory_order_relaxed);
    } else {
      (void)value;
    }
  }

  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& bucket : buckets_)
      total += bucket.load(std::memory_order_relaxed);
    return total;
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// The instrument registered under `name`, created on first use.  The
  /// returned reference is valid for the life of the process.  One name
  /// holds one instrument kind; asking for the same name as a different
  /// kind throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Every instrument's current value as one JSON object:
  ///   {"counters": {name: total},
  ///    "gauges": {name: value},
  ///    "histograms": {name: {"count": n, "sum": s, "buckets": [c0, ...]}}}
  /// Histogram bucket arrays are trimmed after the last non-empty bucket.
  std::string snapshot_json() const;

  /// snapshot_json() to `path`; false (with the file possibly truncated)
  /// on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace qps::obs
