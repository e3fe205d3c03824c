// Shared scaffolding for the experiment harnesses: every bench prints a
// header with its experiment id, the seed used, and a paper-vs-measured
// table, so the output of `for b in build/bench/*; do $b; done` is a
// self-contained reproduction report.
//
// Monte-Carlo harnesses run on the parallel estimation engine
// (core/engine/parallel_estimator.h): --threads picks the worker count
// (default: all hardware threads; results are identical for any value),
// and --target-sem enables early stopping at a standard-error target.
// estimate_ppc runs the strategy's bit-sliced kernel when it has one and
// the scalar per-trial loop otherwise, with bit-identical results.
// --json FILE writes a machine-readable summary of the key metrics, which
// CI uploads as the perf-trajectory artifact.
//
// Grid-shaped sections run through the sweep orchestration subsystem
// (core/sweep/): --workers K shards the grid across K subprocesses (this
// same binary re-exec'ed in --worker mode; results are byte-identical for
// any K, including the K=0 in-process path), --checkpoint FILE journals
// every completed point, --resume skips journaled points after an
// interrupted run, and --point ID re-runs a single point in isolation
// (every other point comes back `skipped`).  --family TAG and --size N cut
// coarser slices than --point and conjoin with it; filters that match
// nothing anywhere exit 2.  run_sweep() below is the one entry point
// benches use.
//
// Distributed sweeps (core/net/) extend the same contract across
// processes and hosts: --listen[=PORT] turns the bench into a socket job
// server (port 0 = kernel-chosen, reported on stdout as
// "listening on 127.0.0.1:PORT"), and --connect HOST:PORT turns another
// copy of the same bench, run with the same flags, into a socket worker
// serving its own sweeps to that coordinator.  Aggregated results stay
// byte-identical to the in-process run for any worker fleet, and
// --checkpoint/--resume compose: a coordinator killed mid-sweep resumes
// from its journal.  A --connect worker that no coordinator ever welcomed
// exits 2, naming the address; one declined for good (a coordinator of
// another protocol version) exits 3.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine/parallel_estimator.h"
#include "core/fault/fault.h"
#include "core/net/socket.h"
#include "core/net/socket_sweep.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/sweep/sweep_report.h"
#include "core/sweep/sweep_runner.h"
#include "core/sweep/sweep_spec.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace qps::bench {

struct BenchContext {
  std::uint64_t seed = 20010826;  // PODC 2001, in spirit
  std::size_t trials = 20000;
  bool quick = false;
  std::size_t threads = 0;  // 0 = hardware concurrency
  double target_sem = 0.0;  // 0 = run the full trial budget
  std::string json_path;    // empty = no JSON report

  // Sweep orchestration (core/sweep/).
  std::size_t workers = 0;       // subprocess count; 0 = in-process
  std::string checkpoint_path;   // empty = no journal
  bool resume = false;           // load the journal, skip completed points
  std::string point_filter;      // --point ID: run one sweep point only
  std::string family_filter;     // --family TAG: run one family's points
  std::optional<std::size_t> size_filter;  // --size N: run one size's points
  bool worker_mode = false;      // hidden: this process serves one sweep
  std::string worker_sweep;      // hidden: which sweep to serve
  std::vector<std::string> command;  // original argv, for worker re-exec

  // Observability (core/obs/).  --trace FILE records Chrome/Perfetto
  // trace_event JSON for the whole run; --metrics-json FILE dumps the
  // metrics registry snapshot at exit; --progress prints a throttled
  // points-done/trials-per-second line to stderr during sweeps.  None of
  // these touch stdout or the computation, so reports and sweep results
  // stay byte-identical with them on or off.
  std::string trace_path;         // empty = no trace
  std::string metrics_json_path;  // empty = no metrics dump
  bool progress = false;

  // Distributed sweeps (core/net/).
  bool listen = false;             // --listen[=PORT]: run as job server
  std::uint16_t listen_port = 0;   // 0 = kernel-chosen, reported on stdout
  std::string connect_address;     // --connect HOST:PORT: run as a worker
  double net_timeout = 30.0;       // --net-timeout S: dead-worker timeout
  double net_heartbeat = 5.0;      // --net-heartbeat S: advertised cadence
  // --no-local-fallback: the job server never evaluates points itself and
  // waits for workers instead (tests use this to force every point through
  // the socket path; a sweep no worker can serve then waits forever).
  bool net_local_fallback = true;

  // Robustness (core/fault/).  --fault SPEC arms deterministic fault
  // injection (grammar in core/fault/fault.h); the spec rides along in the
  // worker re-exec argv, so --workers children inherit it -- use match= to
  // pin a rule to one point.  --max-point-retries bounds how often a
  // forfeited point is retried before quarantine; --point-deadline S kills
  // a worker (local child or socket) that holds one point longer than S
  // seconds, heartbeats notwithstanding.
  std::string fault_spec;            // empty = no injection
  std::size_t max_point_retries = 3;
  double point_deadline = 0.0;       // 0 = watchdog disabled

  // --readmit[=ID,...] clears the journal's quarantine poison markers (all
  // of them, or just the named points) so a --resume re-runs them under a
  // fresh retry budget.  --net-idle-timeout S makes a --connect worker
  // abandon a coordinator that goes silent (and, via its retry budget,
  // reconnect) -- so it finds a coordinator restarted with --resume.
  bool readmit = false;
  std::vector<std::string> readmit_points;  // empty with readmit = all
  double net_idle_timeout = 0.0;            // 0 = wait forever
  // Bound in parse_context() when --listen is given (port printed on
  // stdout); shared so BenchContext stays copyable.
  std::shared_ptr<net::TcpListener> listener;

  /// This process serves sweeps to a remote coordinator over a socket.
  bool socket_worker_mode() const { return !connect_address.empty(); }

  bool has_sweep_filters() const {
    return !point_filter.empty() || !family_filter.empty() ||
           size_filter.has_value();
  }

  Rng make_rng() const { return Rng(seed); }

  /// Engine configuration for one Monte-Carlo sweep.  All estimates in a
  /// harness share the seed (common random numbers across sweep points);
  /// pass a distinct `stream` to decorrelate independent experiments.
  EngineOptions engine_options(std::uint64_t stream = 0) const {
    EngineOptions options;
    options.trials = trials;
    options.threads = threads;
    options.target_sem = target_sem;
    options.seed = seed + 0x9e3779b97f4a7c15ULL * stream;
    return options;
  }

  /// Engine configuration for one sweep point: the trial budget, thread
  /// count and SEM target come from the flags, the seed from the point's
  /// CRN-preserving derivation (core/sweep/sweep_spec.h).
  EngineOptions engine_options_for(const sweep::SweepPoint& point) const {
    EngineOptions options = engine_options();
    options.seed = point.seed;
    return options;
  }
};

namespace detail {

/// Whether any run_sweep() of this process found points matching the
/// --point/--family/--size filters.  Checked at exit so a mistyped filter
/// fails loudly (exit 2) instead of skipping every sweep and exiting 0.
inline bool& sweep_filters_matched() {
  static bool matched = false;
  return matched;
}
inline std::string& sweep_filters_description() {
  static std::string description;
  return description;
}

/// --readmit ids not yet recognized as a point of any sweep run so far.
/// Each run_sweep() erases the ids belonging to its spec; anything left at
/// exit is a typo'd point id and must fail loudly (exit 2), mirroring the
/// sweep-filter check above.  (Whether a recognized id is actually
/// quarantined is the sweep runner's own loud check.)
inline std::vector<std::string>& unclaimed_readmit_ids() {
  static std::vector<std::string> ids;
  return ids;
}

/// The --connect address until a coordinator there welcomes a sweep of
/// this process; still set at exit means the worker did no work at all (a
/// typo'd HOST:PORT, or a coordinator serving other sweeps), which must
/// fail loudly (exit 2) rather than look like a finished job.
inline std::string& unwelcomed_connect_address() {
  static std::string address;
  return address;
}

/// Output paths for the at-exit observability writers (std::atexit takes a
/// captureless function, so the paths live in these statics).
inline std::string& trace_output_path() {
  static std::string path;
  return path;
}
inline std::string& metrics_output_path() {
  static std::string path;
  return path;
}

}  // namespace detail

inline BenchContext parse_context(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchContext ctx;
  ctx.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(ctx.seed)));
  ctx.trials = static_cast<std::size_t>(
      flags.get_int("trials", static_cast<std::int64_t>(ctx.trials)));
  ctx.quick = flags.get_bool("quick", false);
  ctx.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  ctx.target_sem = flags.get_double("target-sem", 0.0);
  ctx.json_path = flags.get_string("json", "");
  ctx.workers = static_cast<std::size_t>(flags.get_int("workers", 0));
  ctx.checkpoint_path = flags.get_string("checkpoint", "");
  ctx.resume = flags.get_bool("resume", false);
  ctx.point_filter = flags.get_string("point", "");
  ctx.family_filter = flags.get_string("family", "");
  const std::int64_t size_flag = flags.get_int("size", -1);
  if (size_flag >= 0) ctx.size_filter = static_cast<std::size_t>(size_flag);
  ctx.worker_mode = flags.get_bool("worker", false);
  ctx.worker_sweep = flags.get_string("sweep", "");
  if (flags.has("listen")) {
    ctx.listen = true;
    const std::string value = flags.get_string("listen", "true");
    if (value != "true") {  // bare --listen means port 0 (kernel-chosen)
      char* end = nullptr;
      const unsigned long port = std::strtoul(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || port > 65535) {
        std::cerr << "--listen expects a port (or no value for a "
                     "kernel-chosen one), got '" << value << "'\n";
        std::exit(2);
      }
      ctx.listen_port = static_cast<std::uint16_t>(port);
    }
  }
  ctx.connect_address = flags.get_string("connect", "");
  ctx.net_timeout = flags.get_double("net-timeout", ctx.net_timeout);
  ctx.net_heartbeat = flags.get_double("net-heartbeat", ctx.net_heartbeat);
  ctx.net_local_fallback = !flags.get_bool("no-local-fallback", false);
  ctx.net_idle_timeout =
      flags.get_double("net-idle-timeout", ctx.net_idle_timeout);
  if (flags.has("readmit")) {
    ctx.readmit = true;
    const std::string list = flags.get_string("readmit", "true");
    if (list != "true") {  // bare --readmit re-admits every poisoned point
      for (std::size_t start = 0; start < list.size();) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start)
          ctx.readmit_points.push_back(list.substr(start, comma - start));
        start = comma + 1;
      }
      if (ctx.readmit_points.empty()) {
        std::cerr << "--readmit expects a comma-separated point-id list (or "
                     "no value for all quarantined points)\n";
        std::exit(2);
      }
    }
  }
  ctx.fault_spec = flags.get_string("fault", "");
  if (!ctx.fault_spec.empty()) {
    if (!fault::kFaultCompiled)
      std::cerr << "--fault: fault injection is compiled out (QPS_FAULT=0); "
                   "the spec is ignored\n";
    try {
      fault::configure(ctx.fault_spec);
    } catch (const std::invalid_argument& e) {
      std::cerr << "--fault: " << e.what() << "\n";
      std::exit(2);
    }
  }
  const std::int64_t retries_flag =
      flags.get_int("max-point-retries",
                    static_cast<std::int64_t>(ctx.max_point_retries));
  if (retries_flag < 0) {
    std::cerr << "--max-point-retries must be >= 0, got " << retries_flag
              << "\n";
    std::exit(2);
  }
  ctx.max_point_retries = static_cast<std::size_t>(retries_flag);
  ctx.point_deadline = flags.get_double("point-deadline", 0.0);
  ctx.trace_path = flags.get_string("trace", "");
  ctx.metrics_json_path = flags.get_string("metrics-json", "");
  ctx.progress = flags.get_bool("progress", false);
  const auto unused = flags.unused();
  if (!unused.empty()) {
    std::cerr << "unknown flag --" << unused.front()
              << " (supported: --seed --trials --quick --threads "
                 "--target-sem --json --workers --checkpoint "
                 "--resume --readmit --point --family --size --listen "
                 "--connect --net-timeout --net-heartbeat "
                 "--net-idle-timeout --no-local-fallback --trace "
                 "--metrics-json --progress --fault --max-point-retries "
                 "--point-deadline)\n";
    std::exit(2);
  }
  if ((ctx.listen && (ctx.workers > 0 || !ctx.connect_address.empty())) ||
      (!ctx.connect_address.empty() && ctx.workers > 0)) {
    std::cerr << "--listen, --connect and --workers are mutually "
                 "exclusive execution modes\n";
    std::exit(2);
  }
  if (!ctx.net_local_fallback && !ctx.listen) {
    std::cerr << "--no-local-fallback only makes sense with --listen\n";
    std::exit(2);
  }
  if (ctx.listen) {
    ctx.listener = std::make_shared<net::TcpListener>(
        net::TcpListener::bind(ctx.listen_port));
    if (!ctx.listener->valid()) {
      std::cerr << "cannot bind job-server port "
                << (ctx.listen_port == 0 ? std::string("(any)")
                                         : std::to_string(ctx.listen_port))
                << "\n";
      std::exit(2);
    }
  }
  if (ctx.quick) ctx.trials = std::max<std::size_t>(ctx.trials / 10, 100);
  if (ctx.resume && ctx.checkpoint_path.empty()) {
    std::cerr << "--resume needs --checkpoint FILE\n";
    std::exit(2);
  }
  if (ctx.readmit && !ctx.resume) {
    std::cerr << "--readmit needs --resume (quarantine poison markers live "
                 "in the checkpoint journal)\n";
    std::exit(2);
  }
  if (ctx.listen) {
    // Scripts parse this line to learn the kernel-chosen port; flush so it
    // is visible before the first sweep blocks.
    std::cout << "listening on 127.0.0.1:" << ctx.listener->port()
              << std::endl;
  }
  // Observability sinks are written at exit so one file covers the whole
  // harness (every sweep, every estimator run), including early std::exit
  // paths like worker mode.
  if (!ctx.trace_path.empty()) {
    if (!obs::kTraceCompiled)
      std::cerr << "--trace: tracing is compiled out (QPS_OBS_TRACE=0); the "
                   "trace will be empty\n";
    obs::TraceRecorder::instance().enable();
    detail::trace_output_path() = ctx.trace_path;
    std::atexit(+[] {
      if (!obs::TraceRecorder::instance().write_json(
              detail::trace_output_path()))
        std::cerr << "failed writing --trace path "
                  << detail::trace_output_path() << "\n";
    });
  }
  if (!ctx.metrics_json_path.empty()) {
    if (!obs::kMetricsCompiled)
      std::cerr << "--metrics-json: metrics are compiled out "
                   "(QPS_OBS_METRICS=0); the snapshot will be empty\n";
    detail::metrics_output_path() = ctx.metrics_json_path;
    std::atexit(+[] {
      if (!obs::MetricsRegistry::instance().write_json(
              detail::metrics_output_path()))
        std::cerr << "failed writing --metrics-json path "
                  << detail::metrics_output_path() << "\n";
    });
  }
  // Filters that match no sweep of the whole harness must not look like
  // success; the at-exit hook turns them into exit 2.  Worker subprocesses
  // are exempt: they serve runner-dispatched points and never consult the
  // filters.
  if (ctx.has_sweep_filters() && !ctx.worker_mode) {
    std::string description;
    if (!ctx.point_filter.empty())
      description += "--point '" + ctx.point_filter + "' ";
    if (!ctx.family_filter.empty())
      description += "--family '" + ctx.family_filter + "' ";
    if (ctx.size_filter.has_value())
      description += "--size " + std::to_string(*ctx.size_filter) + " ";
    detail::sweep_filters_description() = description;
    std::atexit(+[] {
      if (!detail::sweep_filters_matched()) {
        std::cerr << detail::sweep_filters_description()
                  << "matched no point of any sweep in this harness\n";
        std::_Exit(2);
      }
    });
  }
  if (ctx.socket_worker_mode()) {
    detail::unwelcomed_connect_address() = ctx.connect_address;
    std::atexit(+[] {
      if (!detail::unwelcomed_connect_address().empty()) {
        std::cerr << "--connect " << detail::unwelcomed_connect_address()
                  << ": no coordinator welcomed any sweep of this harness\n";
        std::_Exit(2);
      }
    });
  }
  if (ctx.readmit && !ctx.readmit_points.empty() && !ctx.worker_mode) {
    detail::unclaimed_readmit_ids() = ctx.readmit_points;
    std::atexit(+[] {
      for (const std::string& id : detail::unclaimed_readmit_ids()) {
        std::cerr << "--readmit names point '" << id
                  << "', which is not a point of any sweep in this harness\n";
        std::_Exit(2);
      }
    });
  }

  // Remember argv for worker re-exec, minus the worker-mode flags the
  // runner adds itself and the observability sinks, which are
  // per-process: a worker inheriting --trace/--metrics-json would clobber
  // the coordinator's files at exit, and --progress lines would
  // interleave.  Value-taking flags accept both --flag=V and --flag V, so
  // the bare form skips the following value token too.
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--worker" || arg.rfind("--worker=", 0) == 0 ||
        arg.rfind("--sweep", 0) == 0 || arg.rfind("--progress=", 0) == 0 ||
        arg.rfind("--trace=", 0) == 0 || arg.rfind("--metrics-json=", 0) == 0)
      continue;
    if (arg == "--trace" || arg == "--metrics-json" || arg == "--progress") {
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) ++i;
      continue;
    }
    ctx.command.push_back(arg);
  }
  return ctx;
}

/// Runs `spec` through the sweep subsystem under the context's
/// --workers/--checkpoint/--resume/--listen/--connect flags and returns
/// the in-order results.
///
/// In worker mode (the hidden --worker --sweep=NAME flags the runner
/// passes to its subprocesses) the behavior is different: when `spec` is
/// the sweep this worker was spawned for, the call serves points over the
/// socket the runner passed down (fds 0 and 3) and never returns; for any
/// other sweep it returns empty placeholder results so the harness skips
/// cheaply to the sweep being served (all output is discarded in worker
/// mode).
///
/// In --connect mode the call connects to the coordinator and serves this
/// sweep over the socket protocol, then returns all-skipped placeholders
/// (the coordinator owns the real results); a fatal decline exits 3 at
/// once.  In --listen mode the call runs the socket job server for this
/// sweep.
inline std::vector<sweep::PointResult> run_sweep(
    const BenchContext& ctx, sweep::SweepSpec spec,
    const sweep::PointEvaluator& eval) {
  // The journal must only revive points measured under the same budget.
  // json_number keeps the SEM target round-trip exact; std::to_string
  // would collapse distinct tiny targets to "0.000000".
  spec.set_config_tag("trials=" + std::to_string(ctx.trials) +
                      ";target_sem=" + json_number(ctx.target_sem));

  if (ctx.worker_mode) {
    if (ctx.worker_sweep == spec.name())
      std::exit(sweep::SweepRunner::serve(spec, eval, STDIN_FILENO, 3));
    std::vector<sweep::PointResult> placeholders;
    for (const sweep::SweepPoint& point : spec.expand())
      placeholders.push_back({point, RunningStats{}, false});
    return placeholders;
  }

  // Socket worker: serve this sweep to the remote coordinator, then hand
  // back all-skipped placeholders -- the coordinator owns the aggregated
  // results, so this process's tables and checks stay empty.
  if (ctx.socket_worker_mode()) {
    std::string host;
    std::uint16_t port = 0;
    if (!net::parse_host_port(ctx.connect_address, host, port)) {
      std::cerr << "--connect expects HOST:PORT, got '" << ctx.connect_address
                << "'\n";
      std::exit(2);
    }
    net::WorkerServeOptions serve_options;
    serve_options.node = host + ":" + std::to_string(::getpid());
    serve_options.idle_timeout_seconds = ctx.net_idle_timeout;
    bool welcomed = false;
    const net::ServeOutcome outcome = net::serve_pinned_sweep(
        host, port, spec, eval, serve_options, &welcomed);
    if (welcomed) detail::unwelcomed_connect_address().clear();
    if (outcome == net::ServeOutcome::kConnectFailed)
      std::cerr << "sweep " << spec.name() << ": no coordinator at "
                << ctx.connect_address << "\n";
    if (outcome == net::ServeOutcome::kDeclinedFatal) {
      // Another protocol version will not change its mind: fail the whole
      // worker fast, with the reason already on stderr.
      detail::unwelcomed_connect_address().clear();
      std::exit(3);
    }
    std::vector<sweep::PointResult> placeholders;
    for (const sweep::SweepPoint& point : spec.expand())
      placeholders.push_back({point, RunningStats{}, false, true});
    return placeholders;
  }

  // Subsetting (--point / --family / --size): a sweep containing no
  // matching point is skipped wholesale (all-placeholder results), so one
  // filter isolates a slice across a harness running several sweeps.  The
  // strict no-match error stays in SweepRunner for direct users.
  sweep::SweepOptions filter_probe;
  filter_probe.point_filter = ctx.point_filter;
  filter_probe.family_filter = ctx.family_filter;
  filter_probe.size_filter = ctx.size_filter;
  if (filter_probe.has_filters()) {
    bool in_spec = false;
    std::vector<sweep::PointResult> placeholders;
    for (const sweep::SweepPoint& point : spec.expand()) {
      in_spec = in_spec || filter_probe.selects(point);
      placeholders.push_back({point, RunningStats{}, false, true});
    }
    if (!in_spec) {
      std::cerr << "sweep " << spec.name()
                << ": no point matches the --point/--family/--size filters, "
                   "skipping the whole sweep\n";
      return placeholders;
    }
    detail::sweep_filters_matched() = true;
  }

  // Claim the --readmit ids that name points of this sweep; whatever no
  // sweep claims fails loudly in the at-exit check.
  if (!detail::unclaimed_readmit_ids().empty()) {
    auto& unclaimed = detail::unclaimed_readmit_ids();
    for (const sweep::SweepPoint& point : spec.expand())
      unclaimed.erase(std::remove(unclaimed.begin(), unclaimed.end(), point.id),
                      unclaimed.end());
  }

  // A fresh (non-resume) checkpointed run starts a new journal; do the
  // truncation once per process so a bench journaling several sweeps into
  // one file keeps them all.
  if (!ctx.checkpoint_path.empty() && !ctx.resume) {
    static bool truncated = false;
    if (!truncated) {
      std::ofstream(ctx.checkpoint_path, std::ios::trunc);
      truncated = true;
    }
  }

  sweep::SweepOptions options;
  options.workers = ctx.workers;
  options.checkpoint_path = ctx.checkpoint_path;
  options.resume = ctx.resume;
  options.readmit = ctx.readmit;
  options.readmit_points = ctx.readmit_points;
  options.progress = ctx.progress;
  options.point_filter = ctx.point_filter;
  options.family_filter = ctx.family_filter;
  options.size_filter = ctx.size_filter;
  // One set of job-server settings for both engine-driven paths: the local
  // worker pool (--workers) and the socket job server (--listen).
  options.engine.worker_timeout = ctx.net_timeout;
  options.engine.heartbeat_interval = ctx.net_heartbeat;
  options.engine.max_point_retries = ctx.max_point_retries;
  options.engine.point_deadline = ctx.point_deadline;
  if (ctx.workers > 0) {
    options.worker_command = ctx.command;
    options.worker_command.push_back("--worker");
    options.worker_command.push_back("--sweep=" + spec.name());
  }
  if (ctx.listen) {
    net::SocketCoordinatorOptions coordinator;
    coordinator.engine = options.engine;
    coordinator.local_fallback = ctx.net_local_fallback;
    options.remote_runner =
        net::make_socket_remote_runner(ctx.listener.get(), coordinator);
  }
  return sweep::SweepRunner(std::move(spec), std::move(options)).run(eval);
}

inline void print_header(const std::string& experiment,
                         const std::string& claim, const BenchContext& ctx) {
  std::cout << "\n================================================================\n"
            << "EXPERIMENT  " << experiment << "\n"
            << "PAPER CLAIM " << claim << "\n"
            << "seed=" << ctx.seed << " trials=" << ctx.trials
            << " threads=" << (ctx.threads == 0 ? std::string("auto")
                                                : std::to_string(ctx.threads))
            << " workers=" << ctx.workers << "\n"
            << "================================================================\n";
}

/// "yes"/"NO" markers keep the pass/fail column grep-able.
inline std::string holds(bool ok) { return ok ? "yes" : "NO"; }

/// Machine-readable bench summary: named scalar metrics plus named
/// pass/fail checks, written as JSON when the harness got --json FILE.
/// CI archives these files (BENCH_*.json) as the perf-trajectory artifact.
///
/// Serialization uses util/json.h, so metric names round-trip arbitrary
/// strings and non-finite values survive as their string encodings
/// ("NaN"/"Infinity"/"-Infinity") instead of collapsing to null.  The
/// report deliberately omits the sweep execution flags (--workers,
/// --checkpoint, --resume): aggregated results are byte-identical across
/// those, and CI's sweep-smoke job diffs the files to prove it.
class JsonReport {
 public:
  JsonReport(std::string experiment, const BenchContext& ctx)
      : experiment_(std::move(experiment)), ctx_(ctx) {}

  void add_metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }
  void add_check(const std::string& name, bool pass) {
    checks_.emplace_back(name, pass);
    all_pass_ = all_pass_ && pass;
  }
  /// One metric per sweep point (the point id keyed under `prefix/`),
  /// recording the measured mean and the trials actually spent (visible
  /// early-stop effect under --target-sem).
  void add_sweep(const std::string& prefix,
                 const std::vector<sweep::PointResult>& results) {
    for (const sweep::PointResult& result : results) {
      if (result.skipped) continue;     // --point filter left this one out
      if (result.quarantined) continue;  // no result to report, only counters
      add_metric(prefix + "/" + result.point.id + "/mean",
                 result.stats.mean());
      add_metric(prefix + "/" + result.point.id + "/trials",
                 static_cast<double>(result.stats.count()));
    }
  }
  bool all_pass() const { return all_pass_; }

  /// Writes the report when --json was given; exits non-zero on I/O error
  /// so CI never uploads a silently-truncated artifact.
  void write_if_requested() const {
    if (ctx_.json_path.empty()) return;
    std::ofstream out(ctx_.json_path);
    if (!out) {
      std::cerr << "cannot open --json path " << ctx_.json_path << "\n";
      std::exit(2);
    }
    out << "{\n  \"experiment\": " << json_quote(experiment_) << ",\n"
        << "  \"seed\": " << ctx_.seed << ",\n"
        << "  \"trials\": " << ctx_.trials << ",\n"
        << "  \"threads\": " << ctx_.threads << ",\n"
        << "  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i ? "," : "") << "\n    " << json_quote(metrics_[i].first)
          << ": " << json_number(metrics_[i].second);
    }
    out << (metrics_.empty() ? "" : "\n  ") << "},\n  \"checks\": {";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      out << (i ? "," : "") << "\n    " << json_quote(checks_[i].first)
          << ": " << (checks_[i].second ? "true" : "false");
    }
    out << (checks_.empty() ? "" : "\n  ") << "},\n  \"all_pass\": "
        << (all_pass_ ? "true" : "false") << "\n}\n";
    if (!out.flush()) {
      std::cerr << "failed writing --json path " << ctx_.json_path << "\n";
      std::exit(2);
    }
  }

 private:
  std::string experiment_;
  const BenchContext& ctx_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  bool all_pass_ = true;
};

}  // namespace qps::bench
