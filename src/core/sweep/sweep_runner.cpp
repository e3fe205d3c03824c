#include "core/sweep/sweep_runner.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <iostream>
#include <string>

#include "core/fault/fault.h"
#include "core/net/socket_sweep.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/sweep/checkpoint.h"
#include "util/fsio.h"
#include "util/require.h"

namespace qps::sweep {

namespace {

/// Throttled stderr progress line (--progress): points done/total, rolling
/// trials/sec sourced from the engine/trials counter, and an ETA from the
/// points-per-second since the meter started.  Each update is one buffer
/// and one write(2), so lines from concurrent processes never interleave
/// mid-line, and nothing here touches stdout.
class ProgressMeter {
 public:
  ProgressMeter(bool enabled, std::string sweep_name, std::size_t total,
                std::size_t already_done)
      : enabled_(enabled),
        name_(std::move(sweep_name)),
        total_(total),
        done_(already_done),
        initial_done_(already_done) {
    if (!enabled_) return;
    start_us_ = obs::monotonic_us();
    last_emit_us_ = start_us_;
    last_trials_ = engine_trials();
  }

  /// One point finished (any execution path).  Emits at most once per
  /// second.
  void point_done() {
    ++done_;
    if (enabled_) emit(false);
  }

  /// Final line, emitted unconditionally so the 100% state is always seen.
  void finish() {
    if (enabled_ && done_ > initial_done_) emit(true);
  }

 private:
  static std::uint64_t engine_trials() {
    return obs::MetricsRegistry::instance().counter("engine/trials").value();
  }

  void emit(bool force) {
    const std::uint64_t now = obs::monotonic_us();
    if (!force && now - last_emit_us_ < kMinIntervalUs) return;

    const std::uint64_t trials = engine_trials();
    const double window_s =
        static_cast<double>(now - last_emit_us_) / 1e6;
    const double rate =
        window_s > 0.0
            ? static_cast<double>(trials - last_trials_) / window_s
            : 0.0;
    last_emit_us_ = now;
    last_trials_ = trials;

    // ETA from the points completed by this run (checkpointed points were
    // free and would bias the estimate).
    const double elapsed_s = static_cast<double>(now - start_us_) / 1e6;
    const std::size_t computed = done_ - initial_done_;
    double eta_s = -1.0;
    if (computed > 0 && done_ < total_)
      eta_s = elapsed_s / static_cast<double>(computed) *
              static_cast<double>(total_ - done_);

    char line[256];
    int len;
    if (eta_s >= 0.0)
      len = std::snprintf(line, sizeof line,
                          "sweep %s: %zu/%zu points, %.3g trials/s, eta %.0fs\n",
                          name_.c_str(), done_, total_, rate, eta_s);
    else
      len = std::snprintf(line, sizeof line,
                          "sweep %s: %zu/%zu points, %.3g trials/s\n",
                          name_.c_str(), done_, total_, rate);
    if (len > 0)
      util::write_all(
          STDERR_FILENO,
          std::string_view(line, std::min(static_cast<std::size_t>(len),
                                          sizeof line - 1)));
  }

  static constexpr std::uint64_t kMinIntervalUs = 1000000;

  bool enabled_;
  std::string name_;
  std::size_t total_;
  std::size_t done_;
  std::size_t initial_done_;
  std::uint64_t start_us_ = 0;
  std::uint64_t last_emit_us_ = 0;
  std::uint64_t last_trials_ = 0;
};

}  // namespace

bool SweepOptions::selects(const SweepPoint& point) const {
  if (!point_filter.empty() && point.id != point_filter) return false;
  if (!family_filter.empty() && point.family != family_filter) return false;
  if (size_filter.has_value() && point.size != *size_filter) return false;
  return true;
}

SweepRunner::SweepRunner(SweepSpec spec, SweepOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  QPS_REQUIRE(options_.workers == 0 || !options_.worker_command.empty(),
              "sharded execution needs a worker command");
  QPS_REQUIRE(options_.workers == 0 || !options_.remote_runner,
              "worker subprocesses and a remote runner are mutually "
              "exclusive");
  QPS_REQUIRE(!options_.readmit || options_.resume,
              "--readmit needs --resume: re-admission clears poison markers "
              "recovered from an existing journal");
}

std::vector<PointResult> SweepRunner::run(const PointEvaluator& eval) const {
  QPS_REQUIRE(static_cast<bool>(eval), "run() needs a point evaluator");
  const std::vector<SweepPoint> points = spec_.expand();
  SweepCheckpoint checkpoint(options_.checkpoint_path, spec_.name(),
                             spec_.fingerprint(), options_.resume);

  std::vector<PointResult> results(points.size());
  std::vector<char> have(points.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    results[i].point = points[i];
    const auto it = checkpoint.completed().find(i);
    if (it != checkpoint.completed().end()) {
      results[i].stats = it->second;
      results[i].from_checkpoint = true;
      have[i] = 1;
    }
  }

  // Sticky quarantine: a poison marker recovered from the journal keeps
  // its point quarantined across --resume -- it failed deterministically,
  // so re-running it without a fix would just burn another retry budget.
  // --readmit (optionally naming specific point ids) clears markers with a
  // journaled readmit record and leaves the point pending again under a
  // fresh budget, so re-admission itself survives a later --resume.
  if (!checkpoint.poisoned().empty() || options_.readmit) {
    const auto poisoned = checkpoint.poisoned();  // copy: readmit mutates
    if (options_.readmit && !options_.readmit_points.empty()) {
      for (const std::string& id : options_.readmit_points) {
        // Only enforce ids that name a point of THIS sweep: a harness
        // running several sweeps passes the same list to each runner, and
        // ids no sweep recognizes at all are the harness's loud at-exit
        // check, not ours.
        bool in_spec = false;
        for (const SweepPoint& point : points)
          in_spec = in_spec || point.id == id;
        if (!in_spec) continue;
        bool found = false;
        for (const auto& [index, attempts] : poisoned)
          found = found || points[index].id == id;
        QPS_REQUIRE(found, "--readmit names point '" + id +
                               "', but that point is not quarantined in the "
                               "journal for sweep " +
                               spec_.name());
      }
    }
    for (const auto& [index, attempts] : poisoned) {
      QPS_REQUIRE(index < points.size(),
                  "journal poison marker index out of range");
      if (have[index]) continue;
      const bool readmitted =
          options_.readmit &&
          (options_.readmit_points.empty() ||
           std::find(options_.readmit_points.begin(),
                     options_.readmit_points.end(),
                     points[index].id) != options_.readmit_points.end());
      if (readmitted) {
        checkpoint.record_readmit(points[index]);
        std::cerr << "sweep " << spec_.name() << ": point "
                  << points[index].id << " re-admitted after quarantine ("
                  << attempts << " prior failed attempt(s))\n";
        continue;  // have[] stays 0: the point runs with a fresh budget
      }
      results[index].quarantined = true;
      have[index] = 1;
    }
  }

  // Subsetting filters (--point / --family / --size): everything they
  // exclude is marked skipped up front, so neither the worker pool nor the
  // in-process fallback touches it (journaled results are still surfaced).
  if (options_.has_filters()) {
    bool matched = false;
    for (const SweepPoint& point : points)
      matched = matched || options_.selects(point);
    QPS_REQUIRE(matched, "point/family/size filters match no point of sweep " +
                             spec_.name());
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (options_.selects(points[i]) || have[i]) continue;
      results[i].skipped = true;
      have[i] = 1;
    }
  }

  std::size_t already_done = 0;
  for (const char h : have) already_done += static_cast<std::size_t>(h);
  ProgressMeter progress(options_.progress, spec_.name(), points.size(),
                         already_done);
  static obs::Counter& points_done =
      obs::MetricsRegistry::instance().counter("sweep/points_done");
  static obs::Counter& points_quarantined =
      obs::MetricsRegistry::instance().counter("sweep/points_quarantined");
  // One computed point, from either path: aggregate, journal (written, not
  // yet synced -- each path commits its own group), count.
  const auto complete = [&](std::size_t index, const RunningStats& stats) {
    results[index].stats = stats;
    have[index] = 1;
    checkpoint.record(points[index], stats);
    points_done.increment();
    progress.point_done();
  };

  // Engine-driven path: the local worker pool, or an injected remote
  // runner, gets the still-missing indices.  The record sink is
  // dedup-guarded: a badly-behaved hook reporting an index twice must not
  // double-journal.  Each round is one journal commit, made before the
  // sink returns -- so before the coordinator loop polls again.
  const RemoteRunner runner =
      options_.workers > 0
          ? net::make_local_pool_runner(options_.worker_command,
                                        options_.workers, options_.engine)
          : options_.remote_runner;
  if (runner) {
    std::deque<std::size_t> pending;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (!have[i]) pending.push_back(i);
    if (!pending.empty()) {
      const RemoteRecord record = [&](const ResultRound& round) {
        for (const auto& [index, stats] : round) {
          QPS_REQUIRE(index < points.size(),
                      "remote result index out of range");
          if (!have[index]) complete(index, stats);
        }
        checkpoint.commit();
      };
      const RemoteQuarantine quarantine = [&](std::size_t index,
                                              std::size_t attempts) {
        QPS_REQUIRE(index < points.size(),
                    "remote quarantine index out of range");
        if (have[index]) return;
        results[index].quarantined = true;
        have[index] = 1;  // the in-process loop must not touch it
        checkpoint.record_quarantine(points[index], attempts);
        points_quarantined.increment();
        std::cerr << "sweep " << spec_.name() << ": point "
                  << points[index].id << " quarantined after " << attempts
                  << " failed attempt(s)\n";
        progress.point_done();
      };
      runner(spec_, points, std::move(pending), eval, record, quarantine);
    }
  }

  // In-process path: evaluate whatever is still missing, in index order,
  // committing each point on its own.  After an engine-driven run nothing
  // is (its loop falls back to local evaluation itself), so this is the
  // workers == 0 path.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (have[i]) continue;
    RunningStats stats;
    {
      QPS_TRACE_SPAN("sweep/point", "sweep");
      stats = eval(points[i]);
    }
    complete(i, stats);
    checkpoint.commit();
  }
  progress.finish();
  return results;
}

int SweepRunner::serve(const SweepSpec& spec, const PointEvaluator& eval,
                       int in_fd, int out_fd) {
  QPS_REQUIRE(static_cast<bool>(eval), "serve() needs a point evaluator");
  // Both fds carry the same socketpair end (make_local_pool_runner), so the
  // session runs over in_fd alone.
  (void)out_fd;
  const std::string node = "local:" + std::to_string(::getpid());
  const PointEvaluator faulted = [&eval](const SweepPoint& point) {
    // Worker-side injection site: crash/error/delay here exercises the
    // engine's forfeit -> respawn -> quarantine machinery.
    QPS_FAULT_POINT2("sweep/point_eval", point.id);
    return eval(point);
  };
  net::TcpStream stream(in_fd);
  std::string error;
  const net::ServeOutcome outcome =
      net::serve_connection(stream, node, spec, faulted, &error);
  if (outcome == net::ServeOutcome::kServedBye) return 0;
  std::cerr << "worker " << node << ": sweep " << spec.name() << ": "
            << error << "\n";
  return 1;
}

}  // namespace qps::sweep
