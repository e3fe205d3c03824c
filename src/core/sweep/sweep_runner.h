// Sweep execution: in-process, or engine-driven across workers.
//
// A SweepRunner executes every point of a SweepSpec through a caller-
// supplied PointEvaluator and returns the results in point-index order.
// Two execution paths, one output contract:
//
//  * In-process (workers == 0, no remote runner): each point is evaluated
//    in the calling process, in index order.
//  * Engine-driven: the pending points go to the socket job server's
//    engine and coordinator loop (core/net/socket_sweep.h), whose workers
//    are TCP peers (a remote runner) or, with workers >= 1, children the
//    runner fork/execs from `worker_command` -- normally the same binary
//    re-invoked in --worker mode, which enters serve() -- each over a
//    socketpair.  Points are handed out dynamically, so a slow high-n
//    point never stalls the grid; a failed, silent, or overdue worker
//    forfeits only its in-flight point; and a point that burns its retry
//    budget gets one in-process last resort before it is quarantined --
//    reported, with no result, never silently dropped.
//
// Because every point's result is a pure function of the spec (derived
// seeds) and the evaluator, and aggregation is by point index, the
// returned results -- and anything rendered from them -- are byte-identical
// for any worker count, and for any interrupt/resume split when a
// checkpoint journal is in use.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/net/job_server.h"
#include "core/sweep/sweep_spec.h"
#include "util/stats.h"

namespace qps::sweep {

/// Evaluates one sweep point.  Must be a pure function of the point (use
/// point.seed for all randomness) so that every process computes identical
/// results; exact evaluations return a single-sample accumulator.
using PointEvaluator = std::function<RunningStats(const SweepPoint&)>;

/// One delivery round: the (index, stats) results a RemoteRunner hands
/// over together.
using ResultRound = std::vector<std::pair<std::size_t, RunningStats>>;

/// Sink a RemoteRunner reports completed points through, each index exactly
/// once over the sweep.  One call is one durable group: SweepRunner writes
/// every result of the round to the checkpoint journal as it aggregates it
/// and fdatasyncs the journal once before the call returns, so a runner
/// should hand over everything it has ready in one call rather than one
/// call per point.
using RemoteRecord = std::function<void(const ResultRound& round)>;

/// Sink a RemoteRunner reports quarantined points through: `index` burned
/// its retry budget (it killed or timed out `attempts` workers) and will
/// not be evaluated.  A quarantined point is final for the sweep: the hook
/// is expected to have already spent whatever local last resort it is
/// configured for (run_socket_sweep tries `eval` once when local fallback
/// is enabled), so the runner must not evaluate it again.
using RemoteQuarantine =
    std::function<void(std::size_t index, std::size_t attempts)>;

/// Engine-driven execution hook.  Called with the spec, its expanded
/// points, and the indices still to be computed; must evaluate every
/// pending point (remotely, or locally via `eval` as a fallback) and
/// report each completion through `record`, in rounds of whatever results
/// are ready together -- or, for a point that exhausts its retry budget,
/// through `quarantine`.
/// core/net/socket_sweep.h supplies the socket job server's hook and the
/// local worker pool's.
using RemoteRunner = std::function<void(
    const SweepSpec& spec, const std::vector<SweepPoint>& points,
    std::deque<std::size_t> pending, const PointEvaluator& eval,
    const RemoteRecord& record,
    const RemoteQuarantine& quarantine)>;

struct SweepOptions {
  /// Local worker subprocesses; 0 runs every point in-process.
  std::size_t workers = 0;
  /// argv for worker subprocesses (argv[0] is the executable); required
  /// when workers >= 1.  The command must re-enter serve() for this spec.
  std::vector<std::string> worker_command;
  /// Job-server settings for the local worker pool: the per-point retry
  /// budget (max_point_retries), the point-deadline watchdog, and the
  /// liveness timeouts.  A remote runner carries its own copy.
  net::JobServerOptions engine;
  /// Distributed execution: when set, pending points are handed to this
  /// hook instead of local workers (mutually exclusive with workers >= 1).
  /// Checkpointing, filters, and result aggregation are unchanged -- the
  /// hook only replaces who computes the points, so the output stays
  /// byte-identical.
  RemoteRunner remote_runner;
  /// Checkpoint journal path; empty disables journaling.
  std::string checkpoint_path;
  /// Emit a throttled progress line to stderr after each completed point:
  /// points done/total, rolling trials/sec (from the engine/trials metric),
  /// and an ETA.  Progress goes to stderr only, so stdout reports stay
  /// byte-identical with it on or off.
  bool progress = false;
  /// Load journaled results for this spec and skip those points.
  bool resume = false;
  /// When non-empty, only the point with exactly this id is evaluated and
  /// every other point comes back with `skipped` set -- the debugging path
  /// for re-running a single exact point in isolation.  Throws when no
  /// point of the spec has this id.
  std::string point_filter;
  /// Coarser slices than point_filter: keep only points of this family
  /// (when non-empty) and/or this size (when set).  Filters conjoin --
  /// a point must match every filter that is present -- and excluded
  /// points come back `skipped`.  Throws when the conjunction matches no
  /// point of the spec.
  std::string family_filter;
  std::optional<std::size_t> size_filter;
  /// Quarantine re-admission (--readmit): clear the journal's sticky
  /// poison markers and re-run the formerly quarantined points under a
  /// fresh retry budget.  With `readmit_points` empty every poisoned point
  /// is re-admitted; otherwise only the named point ids are (the rest stay
  /// quarantined).  Each re-admission is recorded in the journal, so the
  /// decision survives a later --resume.  Requires `resume` (there is
  /// nothing to re-admit in a fresh journal).
  bool readmit = false;
  std::vector<std::string> readmit_points;

  /// True when any subsetting filter is configured.
  bool has_filters() const {
    return !point_filter.empty() || !family_filter.empty() ||
           size_filter.has_value();
  }
  /// Whether `point` survives the configured filters.
  bool selects(const SweepPoint& point) const;
};

struct PointResult {
  SweepPoint point;
  RunningStats stats;
  /// True when the result was recovered from the journal, not computed.
  bool from_checkpoint = false;
  /// True when the point was excluded by SweepOptions::point_filter; the
  /// stats carry no samples.
  bool skipped = false;
  /// True when the point exhausted its retry budget (it
  /// repeatedly killed or stalled workers) and every permitted last resort
  /// failed too; the stats carry no samples.
  bool quarantined = false;
};

class SweepRunner {
 public:
  SweepRunner(SweepSpec spec, SweepOptions options);

  /// Executes the sweep and returns one result per point, in index order.
  std::vector<PointResult> run(const PointEvaluator& eval) const;

  /// Worker-mode entry of a child spawned by run(): serves `spec` as a
  /// pinned job-server session over the socket the runner passed down and
  /// returns the process exit code (0 once the runner says bye).  run()
  /// puts the same socketpair end on fds 0 and 3, so the conventional call
  /// is serve(spec, eval, 0, 3); the session runs over `in_fd`, which
  /// must be that socket.  Every evaluation passes the
  /// "sweep/point_eval" fault point first.
  static int serve(const SweepSpec& spec, const PointEvaluator& eval,
                   int in_fd, int out_fd);

  const SweepSpec& spec() const { return spec_; }

 private:
  SweepSpec spec_;
  SweepOptions options_;
};

}  // namespace qps::sweep
