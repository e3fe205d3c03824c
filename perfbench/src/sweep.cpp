// sweep_sharded: ~800 cheap Monte-Carlo points per SweepRunner::run,
// sharded across 3 worker subprocesses (this executable re-exec'ed with
// --sweep-worker) with a checkpoint journal.  Each point is only 2048
// trials, so per-point dispatch, the pipe wire and the fdatasync'd
// journal append dominate -- the opposite end of the engine from mc_grid.
#include <filesystem>
#include <iostream>
#include <map>

#include "core/engine/parallel_estimator.h"
#include "core/obs/metrics.h"
#include "core/sweep/evaluators.h"
#include "core/sweep/sweep_runner.h"
#include "mc.h"
#include "report.h"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kPointTrials = 2048;
// In-process warm-up points of the set-up (about 20 ms), so set-up time
// stands well above timer noise.
constexpr std::size_t kWarmPoints = 100;

qps::sweep::SweepSpec sweep_spec(std::uint64_t seed) {
  qps::sweep::SweepSpec spec("perfbench_sweep", seed);
  spec.add_block("maj", {5, 7, 9, 11, 13, 15}, {"det", "R"});
  spec.add_block("tree", {1, 2, 3, 4}, {"det", "R"});
  spec.add_block("hqs", {1, 2}, {"det", "R", "IR"});
  spec.add_block("cw", {0, 1, 2}, {"det", "R"});
  std::vector<double> ps;
  for (int j = 0; j < 25; ++j) ps.push_back(0.02 + 0.04 * j);
  spec.set_ps(ps);
  spec.set_config_tag("trials=" + std::to_string(kPointTrials));
  return spec;
}

// A pure function of the point, so every worker and the in-process
// reference compute the same bits; one engine thread per worker.
qps::RunningStats evaluate(const qps::sweep::SweepPoint& point) {
  const auto system = qps::sweep::standard_system(point.family, point.size);
  const auto strategy = make_strategy(point.family, point.strategy, *system);
  qps::EngineOptions options;
  options.trials = kPointTrials;
  options.threads = 1;
  options.seed = point.seed;
  return qps::ParallelEstimator(options).estimate_ppc(*system, *strategy,
                                                      point.p);
}

struct Sweep {
  qps::sweep::SweepSpec spec{"perfbench_sweep", 0};
  std::string journal;
  std::vector<std::string> worker_command;
};

std::vector<qps::sweep::PointResult> run_sharded(const Sweep& sweep) {
  std::filesystem::remove(sweep.journal);
  qps::sweep::SweepOptions options;
  options.workers = kWorkers;
  options.worker_command = sweep.worker_command;
  options.checkpoint_path = sweep.journal;
  return qps::sweep::SweepRunner(sweep.spec, options).run(evaluate);
}

std::vector<qps::sweep::PointResult> run_in_process(const Sweep& sweep) {
  return qps::sweep::SweepRunner(sweep.spec, qps::sweep::SweepOptions{})
      .run(evaluate);
}

// Every point of a sharded pass must carry exactly the in-process
// reference's count, mean and M2, and none may be quarantined.
void check_pass(const std::vector<qps::sweep::PointResult>& pass,
                const std::vector<qps::sweep::PointResult>& reference,
                std::size_t index, Outcome& out) {
  out.check(pass.size() == reference.size(),
            "sharded pass " + std::to_string(index) + " point count");
  for (std::size_t i = 0; i < pass.size() && i < reference.size(); ++i) {
    const qps::sweep::PointResult& got = pass[i];
    const qps::RunningStats& want = reference[i].stats;
    const bool ok = !got.quarantined && !got.skipped &&
                    got.stats.count() == want.count() &&
                    got.stats.mean() == want.mean() &&
                    got.stats.sum_squared_deviations() ==
                        want.sum_squared_deviations();
    out.op(ok, got.point.id + " (pass " + std::to_string(index) + ")");
  }
}

double timed_pass(const Sweep& sweep, SpanLog* log,
                  const std::vector<qps::sweep::PointResult>& reference,
                  std::size_t index, Outcome& out) {
  const auto t0 = Clock::now();
  std::vector<qps::sweep::PointResult> pass;
  if (log != nullptr) {
    SpanScope span(*log, "sweep.run");
    pass = run_sharded(sweep);
  } else {
    pass = run_sharded(sweep);
  }
  const double seconds = seconds_between(t0, Clock::now());
  check_pass(pass, reference, index, out);
  return seconds;
}

void traced_sweep(const Sweep& sweep, const Args& args, Outcome& out) {
  SpanLog log;
  std::map<std::string, double> v;
  v["engine.decomp_match"] = ledger_cut(args.seed, log, v) ? 1.0 : 0.0;
  // The useful work: the same points evaluated in-process, no journal.
  const auto t0 = Clock::now();
  const auto reference = run_in_process(sweep);
  const double eval_s = seconds_between(t0, Clock::now());

  const std::vector<std::pair<std::string, std::string>> counters = {
      {"sweep/worker_dispatches", "sweep.worker_dispatches"},
      {"sweep/points_requeued", "sweep.points_requeued"},
      {"sweep/workers_respawned", "sweep.workers_respawned"},
      {"sweep/checkpoint_writes", "sweep.checkpoint_writes"}};
  for (const auto& [counter, metric] : counters)
    v[metric] = -static_cast<double>(counter_value(counter));
  std::vector<double> untraced = {timed_pass(sweep, nullptr, reference, 0, out)};
  for (const auto& [counter, metric] : counters)
    v[metric] += static_cast<double>(counter_value(counter));
  const double points = static_cast<double>(sweep.spec.point_count());
  v["sweep.journal_bytes_per_point"] =
      static_cast<double>(std::filesystem::file_size(sweep.journal)) / points;
  std::vector<double> traced = {timed_pass(sweep, &log, reference, 1, out)};
  untraced.push_back(timed_pass(sweep, nullptr, reference, 2, out));
  traced.push_back(timed_pass(sweep, &log, reference, 3, out));
  const double wall = median(untraced);
  v["trace.overhead_frac"] = median(traced) / wall - 1.0;
  const double worker_s = static_cast<double>(kWorkers) * wall;
  v["sweep.useful_frac"] = eval_s / worker_s;
  v["sweep.overhead_ms_per_point"] = (worker_s - eval_s) / points * 1e3;
  fill_per_layer(out, v);
  log.write_chrome_json(args.work_dir + "/trace-sweep_sharded.json");
}

}  // namespace

int serve_sweep_worker(std::uint64_t seed) {
  return qps::sweep::SweepRunner::serve(sweep_spec(seed), evaluate, 0, 3);
}

void run_sweep_sharded(const Args& args, Outcome& out) {
  Sweep sweep;
  // Set-up: spec expanded, and the engine warmed by untimed in-process
  // evaluations of the first points.
  SetupTimer setup([&] {
    sweep.spec = sweep_spec(args.seed);
    sweep.journal = args.work_dir + "/sweep.journal";
    sweep.worker_command = {args.self_exe, "--sweep-worker", "--seed",
                            std::to_string(args.seed)};
    const auto points = sweep.spec.expand();
    for (std::size_t i = 0; i < kWarmPoints; ++i) evaluate(points[i]);
  });
  setup.run();
  if (args.trace) {
    traced_sweep(sweep, args, out);
  } else {
    // The reference runs before the timed region so each pass is checked
    // as it ends, without keeping every pass's results.
    const auto reference = run_in_process(sweep);
    std::vector<qps::sweep::PointResult> last;
    std::size_t index = 0;
    const Timing timing = timed_passes(
        args.seconds, 3,
        [&](std::vector<double>& op_ms) {
          const auto t0 = Clock::now();
          last = run_sharded(sweep);
          op_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        },
        [&] {
          check_pass(last, reference, index++, out);
          setup.run();
        });
    const double points = static_cast<double>(sweep.spec.point_count());
    report_end_to_end(out, setup.median_s(), timing, points,
                      points * static_cast<double>(kPointTrials));
  }
  std::filesystem::remove(sweep.journal);
}

}  // namespace perfbench
