#include "core/obs/metrics.h"

#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "util/fsio.h"
#include "util/json.h"

namespace qps::obs {

std::uint64_t monotonic_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t counter_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

// Instruments live in deques (stable addresses) indexed by name maps; the
// mutex guards registration and snapshot iteration only -- instrument
// reads and writes are lock-free atomics.
struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::map<std::string, Counter*> counter_by_name;
  std::map<std::string, Gauge*> gauge_by_name;
  std::map<std::string, Histogram*> histogram_by_name;

  bool name_taken(const std::string& name) const {
    return counter_by_name.count(name) != 0 ||
           gauge_by_name.count(name) != 0 ||
           histogram_by_name.count(name) != 0;
  }
};

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  // Intentionally leaked: instruments are first registered from arbitrary
  // points in the run, which can be after a client registered an atexit
  // snapshot writer -- a destroyed registry under that writer would be a
  // use-after-free.  The process exit reclaims the memory.
  static Impl* impl = new Impl;
  return *impl;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  const auto it = i.counter_by_name.find(name);
  if (it != i.counter_by_name.end()) return *it->second;
  if (i.name_taken(name))
    throw std::logic_error("metric '" + name +
                           "' already registered as another kind");
  i.counters.emplace_back(name);
  return *(i.counter_by_name[name] = &i.counters.back());
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  const auto it = i.gauge_by_name.find(name);
  if (it != i.gauge_by_name.end()) return *it->second;
  if (i.name_taken(name))
    throw std::logic_error("metric '" + name +
                           "' already registered as another kind");
  i.gauges.emplace_back(name);
  return *(i.gauge_by_name[name] = &i.gauges.back());
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  const auto it = i.histogram_by_name.find(name);
  if (it != i.histogram_by_name.end()) return *it->second;
  if (i.name_taken(name))
    throw std::logic_error("metric '" + name +
                           "' already registered as another kind");
  i.histograms.emplace_back(name);
  return *(i.histogram_by_name[name] = &i.histograms.back());
}

std::string MetricsRegistry::snapshot_json() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : i.counter_by_name) {
    out << (first ? "" : ",") << "\n    " << json_quote(name) << ": "
        << counter->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : i.gauge_by_name) {
    out << (first ? "" : ",") << "\n    " << json_quote(name) << ": "
        << gauge->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : i.histogram_by_name) {
    out << (first ? "" : ",") << "\n    " << json_quote(name)
        << ": {\"count\": " << histogram->count()
        << ", \"sum\": " << histogram->sum() << ", \"buckets\": [";
    std::size_t last = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
      if (histogram->bucket_count(b) != 0) last = b;
    for (std::size_t b = 0; b <= last; ++b)
      out << (b ? "," : "") << histogram->bucket_count(b);
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

bool MetricsRegistry::write_json(const std::string& path) const {
  // Atomic replace: a reader polling the file mid-dump must never see a
  // torn snapshot, and a crash mid-write must leave the previous snapshot
  // intact.
  return util::write_file_atomic(path, snapshot_json());
}

}  // namespace qps::obs
