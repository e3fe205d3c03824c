// mc_grid and mc_half: ParallelEstimator::estimate_ppc over the paper's
// p-grid sweep, and over large universes at p = 1/2.
//
// The traced run splits estimate_ppc into its stages by replaying its
// batch loop on one thread from public calls only -- Rng::for_stream,
// sample_iid_coloring_words, BatchTrialBlock::load/view, run_batch (or
// the scalar run_with loop), the probe_count gather + RunningStats::add,
// and the in-order merge -- and checks that the replay reproduces
// estimate_ppc's statistics bit for bit.
#include "mc.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <tuple>

#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/coloring.h"
#include "core/engine/batch_kernel.h"
#include "core/engine/parallel_estimator.h"
#include "core/engine/simd.h"
#include "core/engine/trial_workspace.h"
#include "core/exact/ppc_exact.h"
#include "core/obs/metrics.h"
#include "core/sweep/evaluators.h"
#include "core/sweep/sweep_spec.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"
#include "report.h"

namespace perfbench {

using qps::ProbeStrategyPtr;
using qps::QuorumSystem;
using qps::RunningStats;

ProbeStrategyPtr make_strategy(const std::string& family,
                               const std::string& tag,
                               const QuorumSystem& system) {
  if (family == "maj") {
    const auto& maj = dynamic_cast<const qps::MajoritySystem&>(system);
    if (tag == "det") return std::make_unique<qps::ProbeMaj>(maj);
    if (tag == "R") return std::make_unique<qps::RProbeMaj>(maj);
  } else if (family == "tree") {
    const auto& tree = dynamic_cast<const qps::TreeSystem&>(system);
    if (tag == "det") return std::make_unique<qps::ProbeTree>(tree);
    if (tag == "R") return std::make_unique<qps::RProbeTree>(tree);
  } else if (family == "hqs") {
    const auto& hqs = dynamic_cast<const qps::HQSystem&>(system);
    if (tag == "det") return std::make_unique<qps::ProbeHQS>(hqs);
    if (tag == "R") return std::make_unique<qps::RProbeHQS>(hqs);
    if (tag == "IR") return std::make_unique<qps::IRProbeHQS>(hqs);
  } else if (family == "cw") {
    const auto& wall = dynamic_cast<const qps::CrumblingWall&>(system);
    if (tag == "det") return std::make_unique<qps::ProbeCW>(wall);
    if (tag == "R") return std::make_unique<qps::RProbeCW>(wall);
  }
  throw std::invalid_argument("no strategy " + tag + " for family " + family);
}

namespace {

// Sizes: a mc_grid pass (351 points) takes about 1 s on 4 threads, a
// mc_half pass (120 points) about 0.5 s, so a 10 s run holds 10+ passes.
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kGridTrials = std::size_t{1} << 16;
constexpr std::size_t kHalfTrials = std::size_t{1} << 19;
constexpr std::size_t kHalfReplicates = 24;
constexpr std::size_t kLedgerTrials = std::size_t{1} << 18;
// The set-up's warm-up estimate: large enough (10-40 ms) that set-up time
// stands well above timer noise.
constexpr std::size_t kWarmTrials = std::size_t{1} << 20;

struct McPoint {
  std::string label;
  std::string family;
  std::string tag;
  std::unique_ptr<QuorumSystem> system;
  ProbeStrategyPtr strategy;
  double p = 0.5;
  std::uint64_t seed = 0;
  std::size_t trials = 0;
};

McPoint make_point(std::string label, const std::string& family,
                   std::size_t size, const std::string& tag, double p,
                   std::uint64_t seed, std::size_t trials) {
  McPoint point;
  point.label = std::move(label);
  point.family = family;
  point.tag = tag;
  point.system = qps::sweep::standard_system(family, size);
  point.strategy = make_strategy(family, tag, *point.system);
  point.p = p;
  point.seed = seed;
  point.trials = trials;
  return point;
}

// The full bench_mc_curves grid: every family x strategy x p, with the
// sweep subsystem's CRN point seeds.
std::vector<McPoint> grid_points(std::uint64_t seed) {
  qps::sweep::SweepSpec spec("mc_curves", seed);
  spec.add_block("maj", {5, 7, 9, 11, 13, 21, 63}, {"det", "R"});
  spec.add_block("tree", {1, 2, 3, 4, 5}, {"det", "R"});
  spec.add_block("hqs", {1, 2, 3}, {"det", "R", "IR"});
  spec.add_block("cw", {0, 1, 2}, {"det", "R"});
  spec.set_ps({0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
  std::vector<McPoint> points;
  for (const qps::sweep::SweepPoint& point : spec.expand())
    points.push_back(make_point(point.id, point.family, point.size,
                                point.strategy, point.p, point.seed,
                                kGridTrials));
  return points;
}

// Deterministic scans at p = 1/2 on large universes, including the
// multi-word (n > 64) Maj127 and Tree127; replicates differ only in seed.
std::vector<McPoint> half_points(std::uint64_t seed) {
  const std::vector<std::pair<std::string, std::size_t>> systems = {
      {"maj", 63}, {"tree", 5}, {"hqs", 3}, {"maj", 127}, {"tree", 6}};
  std::vector<McPoint> points;
  for (std::size_t r = 0; r < kHalfReplicates; ++r) {
    for (const auto& [family, size] : systems) {
      const std::uint64_t point_seed =
          qps::Rng::for_stream(seed, points.size()).next_u64();
      points.push_back(make_point(family + std::to_string(size) + "/r" +
                                      std::to_string(r),
                                  family, size, "det", 0.5, point_seed,
                                  kHalfTrials));
    }
  }
  return points;
}

qps::EngineOptions engine_options(const McPoint& point, std::size_t threads) {
  qps::EngineOptions options;
  options.trials = point.trials;
  options.threads = threads;
  options.batch_size = kBatch;
  options.seed = point.seed;
  return options;
}

RunningStats estimate(const McPoint& point, std::size_t threads) {
  return qps::ParallelEstimator(engine_options(point, threads))
      .estimate_ppc(*point.system, *point.strategy, point.p);
}

// One pass: one estimate_ppc per point.  `op_ms` receives each call's
// latency; with `log`, each call gets a span (the traced configuration of
// the same pass).
std::vector<RunningStats> run_pass(const std::vector<McPoint>& points,
                                   std::size_t threads,
                                   std::vector<double>* op_ms, SpanLog* log) {
  std::vector<RunningStats> results;
  results.reserve(points.size());
  for (const McPoint& point : points) {
    const auto t0 = Clock::now();
    if (log != nullptr) {
      SpanScope span(*log, "mc.estimate_ppc");
      results.push_back(estimate(point, threads));
    } else {
      results.push_back(estimate(point, threads));
    }
    if (op_ms != nullptr)
      op_ms->push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return results;
}

// Checks every point of every pass: 1 <= mean <= n, bit-identical to the
// first pass (estimate_ppc is a pure function of seed and options, for any
// thread count), and -- for Probe_Maj at DP-feasible n, which is optimal
// for Maj -- within 4 SEM of the exact PPC_p.  None of this depends on the
// random-stream version.
class PassChecker {
 public:
  PassChecker(const std::vector<McPoint>& points, std::size_t threads)
      : points_(points), threads_(threads) {}

  void check(const std::vector<RunningStats>& pass, Outcome& out) {
    if (first_.empty()) anchor(pass);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const RunningStats& stats = pass[i];
      const double n = static_cast<double>(points_[i].system->universe_size());
      const bool ok = stats.count() == points_[i].trials &&
                      stats.mean() >= 1.0 && stats.mean() <= n &&
                      anchored_[i] != 0 && same_stats(stats, first_[i]);
      out.op(ok, points_[i].label + " (pass " + std::to_string(passes_) + ")");
    }
    ++passes_;
  }

  const std::vector<RunningStats>& first() const { return first_; }

 private:
  void anchor(const std::vector<RunningStats>& pass) {
    first_ = pass;
    anchored_.assign(points_.size(), 1);
    qps::exact::DpOptions dp;
    dp.threads = threads_;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const McPoint& point = points_[i];
      if (point.family != "maj" || point.tag != "det" ||
          point.system->universe_size() > 13)
        continue;
      const double exact = qps::ppc_exact(*point.system, point.p, dp);
      anchored_[i] = std::abs(pass[i].mean() - exact) <=
                     std::max(4.0 * pass[i].sem(), 1e-9);
    }
  }

  const std::vector<McPoint>& points_;
  std::size_t threads_;
  std::size_t passes_ = 0;
  std::vector<RunningStats> first_;
  std::vector<char> anchored_;
};

double timed_pass(const std::vector<McPoint>& points, std::size_t threads,
                  SpanLog* log, PassChecker& checker, Outcome& out) {
  const auto t0 = Clock::now();
  const std::vector<RunningStats> pass = run_pass(points, threads, nullptr, log);
  const double seconds = seconds_between(t0, Clock::now());
  checker.check(pass, out);
  return seconds;
}

struct ReplayCounts {
  std::uint64_t trials = 0;
  std::uint64_t sliced_trials = 0;
  std::uint64_t det_trials = 0;
  std::uint64_t rand_trials = 0;
  std::uint64_t scalar_trials = 0;
  std::uint64_t batches = 0;
};

// estimate_ppc's batch loop for one point, stage by stage, on the calling
// thread: the same RNG streams, sampler, kernels and merge order, so the
// result must equal estimate_ppc's bit for bit.  Deterministic scans get
// their transpose in the engine.transpose span (load + view); randomized
// strategies transpose inside run_batch, after permuting.
RunningStats replay_point(const McPoint& point,
                          const qps::SimdKernels& kernels, SpanLog& log,
                          ReplayCounts& counts) {
  const QuorumSystem& system = *point.system;
  const qps::ProbeStrategy& strategy = *point.strategy;
  const std::size_t n = system.universe_size();
  const std::size_t stride = (n + 63) / 64;
  const bool sliced = strategy.supports_batch(n);
  const bool det = point.tag == "det";
  qps::TrialWorkspace workspace(n);
  std::uint64_t* masks = workspace.coloring_masks(kBatch);
  qps::BatchTrialBlock& block = workspace.batch_block();
  if (sliced) block.configure(kernels, n);

  RunningStats merged;
  SpanScope point_span(log, "mc.point");
  const std::size_t num_batches = (point.trials + kBatch - 1) / kBatch;
  for (std::size_t k = 0; k < num_batches; ++k) {
    const std::size_t begin = k * kBatch;
    const std::size_t count = std::min(kBatch, point.trials - begin);
    qps::Rng rng = [&] {
      SpanScope span(log, "engine.stream");
      return qps::Rng::for_stream(point.seed, k);
    }();
    {
      SpanScope span(log, "coloring.sample");
      qps::sample_iid_coloring_words(masks, count, n, point.p, rng);
    }
    RunningStats batch;
    if (sliced) {
      const std::size_t cap = block.lane_capacity();
      for (std::size_t offset = 0; offset < count; offset += cap) {
        const std::size_t lanes = std::min(cap, count - offset);
        {
          SpanScope span(log, "engine.transpose");
          block.load(masks + offset * stride, lanes);
          if (det) block.view();
        }
        {
          SpanScope span(log,
                         det ? "algorithms.scan_det" : "algorithms.scan_rand");
          strategy.run_batch(block, rng);
        }
        {
          SpanScope span(log, "engine.reduce");
          for (std::size_t lane = 0; lane < lanes; ++lane)
            batch.add(static_cast<double>(block.probe_count(lane)));
        }
      }
      counts.sliced_trials += count;
      (det ? counts.det_trials : counts.rand_trials) += count;
    } else {
      SpanScope span(log, "algorithms.scalar");
      for (std::size_t i = 0; i < count; ++i) {
        workspace.coloring().assign_greens_words(masks + i * stride);
        qps::ProbeSession& session =
            workspace.begin_trial(workspace.coloring());
        strategy.run_with(workspace, session, rng);
        batch.add(static_cast<double>(session.probe_count()));
      }
      counts.scalar_trials += count;
    }
    {
      SpanScope span(log, "engine.merge");
      merged.merge(batch);
    }
    ++counts.batches;
    counts.trials += count;
  }
  return merged;
}

double self_ns(const std::map<std::string, SpanLog::Totals>& totals,
               const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_ns;
}

double per(double amount, std::uint64_t count) {
  return count == 0 ? 0.0 : amount / static_cast<double>(count);
}

}  // namespace

// The ROADMAP's family x p ledger table, ns per trial per stage.
bool ledger_cut(std::uint64_t seed, SpanLog& log,
                std::map<std::string, double>& values) {
  const qps::SimdKernels& kernels =
      qps::resolve_simd_kernels(qps::SimdIsa::kAuto);
  bool match = true;
  const std::vector<std::tuple<std::string, std::string, std::size_t>>
      families = {{"maj63", "maj", 63}, {"tree63", "tree", 5}};
  const std::vector<std::pair<std::string, double>> ps = {
      {"p01", 0.1}, {"p03", 0.3}, {"p05", 0.5}};
  std::uint64_t stream = 0;
  for (const auto& [key, family, size] : families) {
    for (const auto& [p_key, p] : ps) {
      const McPoint point = make_point(
          key, family, size, "det", p,
          qps::Rng::for_stream(~seed, stream++).next_u64(), kLedgerTrials);
      ReplayCounts counts;
      const std::size_t first = log.size();
      const RunningStats replayed = replay_point(point, kernels, log, counts);
      const auto totals = log.totals(first, log.size());
      const std::string prefix = "ledger." + key + "." + p_key + ".";
      values[prefix + "sample_ns"] =
          per(self_ns(totals, "coloring.sample"), counts.trials);
      values[prefix + "transpose_ns"] =
          per(self_ns(totals, "engine.transpose"), counts.trials);
      values[prefix + "scan_ns"] =
          per(self_ns(totals, "algorithms.scan_det"), counts.trials);
      values[prefix + "reduce_ns"] =
          per(self_ns(totals, "engine.reduce"), counts.trials);
      values[prefix + "total_ns"] =
          per(totals.at("mc.point").total_ns, counts.trials);
      const bool same = same_stats(replayed, estimate(point, 1));
      if (!same)
        std::cerr << "perfbench: replay of ledger point " << key << " "
                  << p_key << " differs from estimate_ppc\n";
      match = match && same;
    }
  }
  return match;
}

namespace {

void traced_mc(const std::string& workload,
               const std::vector<McPoint>& points, const Args& args,
               Outcome& out) {
  const qps::SimdKernels& kernels =
      qps::resolve_simd_kernels(qps::SimdIsa::kAuto);
  SpanLog log;
  std::map<std::string, double> v;
  bool match = ledger_cut(args.seed, log, v);

  // Untraced and traced passes alternate, so drift hits both alike; the
  // registry counters are read around the first pass.
  auto& registry = qps::obs::MetricsRegistry::instance();
  qps::obs::Histogram& merge_wait = registry.histogram("engine/merge_wait_us");
  const std::vector<std::pair<std::string, std::string>> counters = {
      {"engine/trials", "engine.trials"},
      {"engine/batches", "engine.batches"},
      {"engine/simd_blocks", "engine.super_blocks"}};
  for (const auto& [counter, metric] : counters)
    v[metric] = -static_cast<double>(counter_value(counter));
  const std::uint64_t waits0 = merge_wait.count();
  const std::uint64_t wait_sum0 = merge_wait.sum();
  PassChecker checker(points, args.threads);
  std::vector<double> untraced = {
      timed_pass(points, args.threads, nullptr, checker, out)};
  for (const auto& [counter, metric] : counters)
    v[metric] += static_cast<double>(counter_value(counter));
  v["engine.merge_wait_us"] =
      per(static_cast<double>(merge_wait.sum() - wait_sum0),
          merge_wait.count() - waits0);
  std::vector<double> traced = {
      timed_pass(points, args.threads, &log, checker, out)};
  untraced.push_back(timed_pass(points, args.threads, nullptr, checker, out));
  traced.push_back(timed_pass(points, args.threads, &log, checker, out));
  const double t4 = median(untraced);
  v["trace.overhead_frac"] = median(traced) / t4 - 1.0;
  // Single-thread baseline of the same pass.
  const double t1 = timed_pass(points, 1, nullptr, checker, out);
  v["engine.parallel_eff"] = t1 / (static_cast<double>(args.threads) * t4);

  ReplayCounts counts;
  const std::size_t first = log.size();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool same =
        same_stats(replay_point(points[i], kernels, log, counts),
                   checker.first()[i]);
    if (!same)
      std::cerr << "perfbench: replay of " << points[i].label
                << " differs from estimate_ppc\n";
    match = match && same;
  }
  const auto totals = log.totals(first, log.size());
  const double point_ns = totals.at("mc.point").total_ns;
  double stage_ns = 0.0;
  for (const char* stage :
       {"engine.stream", "coloring.sample", "engine.transpose",
        "algorithms.scan_det", "algorithms.scan_rand", "engine.reduce",
        "algorithms.scalar", "engine.merge"})
    stage_ns += self_ns(totals, stage);
  v["engine.stage_coverage"] = stage_ns / point_ns;
  // Each stage's share of the replayed (single-thread) trial time.
  for (const auto& [stage, metric] :
       std::vector<std::pair<std::string, std::string>>{
           {"coloring.sample", "coloring.sample_share"},
           {"engine.transpose", "engine.transpose_share"},
           {"engine.reduce", "engine.reduce_share"},
           {"engine.merge", "engine.merge_share"},
           {"algorithms.scan_det", "algorithms.scan_det_share"},
           {"algorithms.scan_rand", "algorithms.scan_rand_share"},
           {"algorithms.scalar", "algorithms.scalar_share"}})
    v[metric] = self_ns(totals, stage) / point_ns;
  v["coloring.sample_ns_per_trial"] =
      per(self_ns(totals, "coloring.sample"), counts.trials);
  v["engine.transpose_ns_per_trial"] =
      per(self_ns(totals, "engine.transpose"), counts.sliced_trials);
  v["engine.reduce_ns_per_trial"] =
      per(self_ns(totals, "engine.reduce"), counts.sliced_trials);
  v["engine.merge_ns_per_batch"] =
      per(self_ns(totals, "engine.merge"), counts.batches);
  v["algorithms.scan_det_ns_per_trial"] =
      per(self_ns(totals, "algorithms.scan_det"), counts.det_trials);
  v["algorithms.scan_rand_ns_per_trial"] =
      per(self_ns(totals, "algorithms.scan_rand"), counts.rand_trials);
  v["algorithms.scalar_ns_per_trial"] =
      per(self_ns(totals, "algorithms.scalar"), counts.scalar_trials);
  v["engine.decomp_match"] = match ? 1.0 : 0.0;
  fill_per_layer(out, v);
  log.write_chrome_json(args.work_dir + "/trace-" + workload + ".json");
}

void run_mc(const std::string& workload,
            std::vector<McPoint> (*build)(std::uint64_t), const Args& args,
            Outcome& out) {
  std::vector<McPoint> points;
  // Set-up: systems and strategies built, SIMD resolved, and the pool
  // warmed by one untimed estimate on the largest universe.
  SetupTimer setup([&] {
    points = build(args.seed);
    qps::resolve_simd_kernels(qps::SimdIsa::kAuto);
    const McPoint& largest = *std::max_element(
        points.begin(), points.end(), [](const McPoint& a, const McPoint& b) {
          return a.system->universe_size() < b.system->universe_size();
        });
    qps::EngineOptions options = engine_options(largest, args.threads);
    options.trials = kWarmTrials;
    qps::ParallelEstimator(options).estimate_ppc(*largest.system,
                                                 *largest.strategy, largest.p);
  });
  setup.run();
  if (args.trace) {
    traced_mc(workload, points, args, out);
    return;
  }
  PassChecker checker(points, args.threads);
  std::vector<RunningStats> last;
  const Timing timing = timed_passes(
      args.seconds, 3,
      [&](std::vector<double>& op_ms) {
        last = run_pass(points, args.threads, &op_ms, nullptr);
      },
      [&] {
        checker.check(last, out);
        setup.run();
      });
  double trials = 0.0;
  for (const McPoint& point : points) trials += static_cast<double>(point.trials);
  report_end_to_end(out, setup.median_s(), timing,
                    static_cast<double>(points.size()), trials);
}

}  // namespace

void run_mc_grid(const Args& args, Outcome& out) {
  run_mc("mc_grid", grid_points, args, out);
}

void run_mc_half(const Args& args, Outcome& out) {
  run_mc("mc_half", half_points, args, out);
}

}  // namespace perfbench
