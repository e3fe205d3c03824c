// Shared plumbing of the benchmark program: the run's arguments, the
// outcome a workload fills in (checks and metrics), the timed-pass loop
// that turns passes into end-to-end metrics, and the in-memory span log
// the traced runs use to split time into layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Benchmark-owned scratch directory (the sweep's checkpoint journal,
  /// the trace file).
  std::string work_dir = ".";
  /// Worker threads of every in-process workload: min(nproc, 4).
  std::size_t threads = 4;
  /// Path of this executable, for re-exec'ing sweep workers.
  std::string self_exe;
};

/// What one run reports: checks counted per operation, and named metrics.
class Outcome {
 public:
  /// Counts one attempted operation; `ok == false` counts it failed and
  /// logs `what` to stderr.
  void op(bool ok, const std::string& what);
  /// A check that is not tied to one operation (it fails the run but
  /// counts no operation).
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);

  bool correct() const { return correct_ && failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Timings of the timed region: one wall time per pass over the workload,
/// and per pass one latency per operation, in the same operation order.
struct Timing {
  std::vector<double> pass_s;
  std::vector<std::vector<double>> op_ms;
};

/// Times a workload's set-up; setup_s is the median of its samples.  An
/// untraced run sets up once before its first pass and again after every
/// pass, so the samples spread over the whole run instead of one moment
/// of it.  The latest set-up's state is what the next pass uses.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {}
  void run();
  double median_s() const;

 private:
  std::function<void()> setup_;
  std::vector<double> samples_;
};

/// Calls `pass(op_ms)` until `seconds` have elapsed and at least
/// `min_passes` passes ran; `pass` appends one latency per operation.
/// `after_pass` runs after each pass, outside its timing (checks).
Timing timed_passes(double seconds, std::size_t min_passes,
                    const std::function<void(std::vector<double>&)>& pass,
                    const std::function<void()>& after_pass);

/// setup_s, wall_s, work_per_s, points_per_s, op_ms_p50, op_ms_p90 and
/// peak_rss_mb -- the end-to-end metrics every workload reports.  Times
/// are medians over passes: wall_s is the median pass, and the op
/// percentiles are taken over each operation's median time.
void report_end_to_end(Outcome& out, double setup_s, const Timing& timing,
                       double points_per_pass, double work_per_pass);

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
/// Max resident set of this process and its reaped children, MiB.
double peak_rss_mb();

/// Bitwise equality of two accumulators (count, mean, M2, min, max).
bool same_stats(const qps::RunningStats& a, const qps::RunningStats& b);

/// Reads a registry counter (0 when never registered).
std::uint64_t counter_value(const std::string& name);

/// In-memory spans: name, parent, start and end.  Spans nest through an
/// open stack on the recording thread; a layer's self time is its
/// duration minus the part its children cover.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct Totals {
    double self_ns = 0.0;
    double total_ns = 0.0;
    std::uint64_t count = 0;
  };

  int open(const char* name);
  void close(int id);
  std::size_t size() const { return spans_.size(); }
  /// Per-name totals over the spans [begin, end) (indices in open order).
  std::map<std::string, Totals> totals(std::size_t begin, std::size_t end) const;
  /// Chrome trace-event JSON of the first 20,000 spans (the per-layer
  /// totals use all of them; the file is for looking at a run).
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Workload entry points (mc.cpp, exact.cpp, sweep.cpp): each fills `out`
/// with the end-to-end metrics (untraced) or the per-layer metrics
/// (traced), and its correctness checks.
void run_mc_grid(const Args& args, Outcome& out);
void run_mc_half(const Args& args, Outcome& out);
void run_exact_dp(const Args& args, Outcome& out);
void run_sweep_sharded(const Args& args, Outcome& out);
/// The worker side of sweep_sharded (SweepRunner::serve on fds 0/3).
int serve_sweep_worker(std::uint64_t seed);

/// Every per-layer metric, with its unit, so a traced run reports the
/// full set; layers a workload does not run read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Sets every per-layer metric not yet set to 0 and appends them in the
/// per_layer_metrics() order.
void fill_per_layer(Outcome& out, const std::map<std::string, double>& values);

}  // namespace perfbench
