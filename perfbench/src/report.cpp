#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>

#include "core/obs/metrics.h"
#include "util/json.h"

namespace perfbench {

void Outcome::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& entry : metrics_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

std::string Outcome::json() const {
  std::string text = "{\"correct\": ";
  text += correct() ? "true" : "false";
  text += ", \"attempted\": " + std::to_string(attempted_);
  text += ", \"failed\": " + std::to_string(failed_);
  text += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) text += ", ";
    first = false;
    text += qps::json_quote(name) + ": {\"value\": " +
            qps::json_number(metric.first) +
            ", \"unit\": " + qps::json_quote(metric.second) + "}";
  }
  return text + "}}";
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void SetupTimer::run() {
  const auto t0 = Clock::now();
  setup_();
  samples_.push_back(seconds_between(t0, Clock::now()));
}

double SetupTimer::median_s() const { return median(samples_); }

Timing timed_passes(double seconds, std::size_t min_passes,
                    const std::function<void(std::vector<double>&)>& pass,
                    const std::function<void()>& after_pass) {
  Timing timing;
  const auto start = Clock::now();
  while (timing.pass_s.size() < min_passes ||
         seconds_between(start, Clock::now()) < seconds) {
    timing.op_ms.emplace_back();
    const auto t0 = Clock::now();
    pass(timing.op_ms.back());
    timing.pass_s.push_back(seconds_between(t0, Clock::now()));
    after_pass();
  }
  return timing;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const long kb = std::max(self.ru_maxrss, children.ru_maxrss);
  return static_cast<double>(kb) / 1024.0;
}

void report_end_to_end(Outcome& out, double setup_s, const Timing& timing,
                       double points_per_pass, double work_per_pass) {
  // Every pass runs the same operations on the same inputs, so each
  // operation's median time over the passes is its typical time.  On a
  // shared host the fastest pass and each operation's fastest time swing
  // more between runs than these medians do.
  std::vector<double> op_ms(timing.op_ms.front().size());
  for (std::size_t i = 0; i < op_ms.size(); ++i) {
    std::vector<double> samples;
    samples.reserve(timing.op_ms.size());
    for (const std::vector<double>& pass : timing.op_ms)
      samples.push_back(pass.at(i));
    op_ms[i] = median(std::move(samples));
  }
  const double pass_s = median(timing.pass_s);
  out.set("setup_s", setup_s, "s");
  out.set("wall_s", pass_s, "s");
  out.set("work_per_s", work_per_pass / pass_s, "1/s");
  out.set("points_per_s", points_per_pass / pass_s, "1/s");
  out.set("op_ms_p50", quantile(op_ms, 0.5), "ms");
  out.set("op_ms_p90", quantile(op_ms, 0.9), "ms");
  out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  std::cerr << "perfbench: " << timing.pass_s.size() << " passes ("
            << quantile(timing.pass_s, 0.0) << " / " << pass_s << " / "
            << quantile(timing.pass_s, 1.0) << " s min/median/max), "
            << op_ms.size() << " ops per pass\n";
}

bool same_stats(const qps::RunningStats& a, const qps::RunningStats& b) {
  const auto bits_equal = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  return a.count() == b.count() && bits_equal(a.mean(), b.mean()) &&
         bits_equal(a.sum_squared_deviations(), b.sum_squared_deviations()) &&
         bits_equal(a.min(), b.min()) && bits_equal(a.max(), b.max());
}

std::uint64_t counter_value(const std::string& name) {
  return qps::obs::MetricsRegistry::instance().counter(name).value();
}

int SpanLog::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now_ns(), 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals(std::size_t begin,
                                                       std::size_t end) const {
  std::vector<double> child_ns(end - begin, 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    const Span& span = spans_[i];
    if (span.parent >= static_cast<int>(begin))
      child_ns[static_cast<std::size_t>(span.parent) - begin] +=
          static_cast<double>(span.end_ns - span.start_ns);
  }
  std::map<std::string, Totals> result;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& span = spans_[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    Totals& totals = result[span.name];
    totals.total_ns += duration;
    totals.self_ns += duration - child_ns[i - begin];
    ++totals.count;
  }
  return result;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  constexpr std::size_t cap = 20000;
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  file << "{\"traceEvents\": [";
  const std::size_t count = std::min(cap, spans_.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Span& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  i == 0 ? "" : ",", span.name,
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                  span.parent);
    file << line;
  }
  file << "\n], \"otherData\": {\"spans\": " << spans_.size()
       << ", \"written\": " << count << "}}\n";
  return static_cast<bool>(file);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"coloring.sample_ns_per_trial", "ns"},
        {"coloring.sample_share", "ratio"},
        {"engine.transpose_ns_per_trial", "ns"},
        {"engine.reduce_ns_per_trial", "ns"},
        {"engine.merge_ns_per_batch", "ns"},
        {"engine.merge_wait_us", "us"},
        {"engine.parallel_eff", "ratio"},
        {"engine.trials", "count"},
        {"engine.batches", "count"},
        {"engine.super_blocks", "count"},
        {"engine.decomp_match", "bool"},
        {"engine.stage_coverage", "ratio"},
        {"engine.transpose_share", "ratio"},
        {"engine.reduce_share", "ratio"},
        {"engine.merge_share", "ratio"},
        {"algorithms.scan_det_ns_per_trial", "ns"},
        {"algorithms.scan_rand_ns_per_trial", "ns"},
        {"algorithms.scalar_ns_per_trial", "ns"},
        {"algorithms.scan_det_share", "ratio"},
        {"algorithms.scan_rand_share", "ratio"},
        {"algorithms.scalar_share", "ratio"},
    };
    for (const char* family : {"maj63", "tree63"})
      for (const char* p : {"p01", "p03", "p05"})
        for (const char* stage :
             {"sample", "transpose", "scan", "reduce", "total"})
          m.push_back({std::string("ledger.") + family + "." + p + "." +
                           stage + "_ns",
                       "ns"});
    const std::vector<std::pair<std::string, std::string>> tail = {
        {"exact.level_ms_sum", "ms"},
        {"exact.levels", "count"},
        {"exact.solves", "count"},
        {"exact.states_per_s", "1/s"},
        {"exact.ppc_ms", "ms"},
        {"exact.pc_ms", "ms"},
        {"exact.tree_ms", "ms"},
        {"exact.outside_levels_frac", "ratio"},
        {"exact.parallel_eff", "ratio"},
        {"sweep.useful_frac", "ratio"},
        {"sweep.overhead_ms_per_point", "ms"},
        {"sweep.journal_bytes_per_point", "B"},
        {"sweep.worker_dispatches", "count"},
        {"sweep.points_requeued", "count"},
        {"sweep.workers_respawned", "count"},
        {"sweep.checkpoint_writes", "count"},
        {"trace.overhead_frac", "ratio"},
    };
    m.insert(m.end(), tail.begin(), tail.end());
    return m;
  }();
  return metrics;
}

void fill_per_layer(Outcome& out, const std::map<std::string, double>& values) {
  std::set<std::string> known;
  for (const auto& [name, unit] : per_layer_metrics()) {
    known.insert(name);
    const auto it = values.find(name);
    out.set(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values)
    if (known.count(name) == 0)
      throw std::logic_error("undeclared per-layer metric " + name);
}

}  // namespace perfbench
