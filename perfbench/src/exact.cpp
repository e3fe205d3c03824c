// exact_dp: Bellman solves by the exact DP kernel -- ppc_exact over a
// p-grid, pc_exact, and optimal_ppc_tree -- on maj / tree / wheel / cw /
// hqs at n = 9..16.  Only the exact layer and its parallel_for do work
// here, and the n = 16 solves give the largest memory footprint of the
// four workloads.
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "core/exact/decision_tree.h"
#include "core/exact/dp_kernel.h"
#include "core/exact/pc_exact.h"
#include "core/exact/ppc_exact.h"
#include "core/obs/metrics.h"
#include "core/sweep/evaluators.h"
#include "mc.h"
#include "report.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// The set-up's warm-up solve: Maj13 (about 10 ms), so set-up time stands
// well above timer noise.
constexpr std::size_t kWarmSystem = 6;

enum class Kind { kPpc, kPc, kTree };

struct Solve {
  Kind kind = Kind::kPpc;
  std::size_t system = 0;  // index into ExactWorkload::systems
  double p = 0.5;
};

struct ExactWorkload {
  std::vector<std::string> labels;
  std::vector<std::unique_ptr<qps::QuorumSystem>> systems;
  std::vector<Solve> solves;
};

// Knowledge states the DP evaluates for universe size n: sum_k
// C(n,k) 2^k = 3^n, computed from the kernel's own level sizes.
double dp_states(std::size_t n) {
  double states = 0.0;
  for (std::size_t k = 0; k <= n; ++k)
    states += static_cast<double>(qps::exact::dp_state_count(n, k));
  return states;
}

// The DP states one pass evaluates.
double pass_states(const ExactWorkload& w) {
  double states = 0.0;
  for (const Solve& s : w.solves)
    states += dp_states(w.systems[s.system]->universe_size());
  return states;
}

// Small systems get a 12-point p-grid plus PC and a decision tree; the
// n = 14..15 systems three p values and PC; Wheel16 one p value and PC.
// The seed jitters every p by up to +-0.02, which leaves the DP's cost
// unchanged.
ExactWorkload build_exact(std::uint64_t seed) {
  ExactWorkload w;
  qps::Rng rng(seed);
  const auto jitter = [&rng](double p) {
    return p + 0.04 * (rng.uniform01() - 0.5);
  };
  const auto add_system = [&w](const std::string& family, std::size_t size) {
    w.labels.push_back(family + std::to_string(size));
    w.systems.push_back(qps::sweep::standard_system(family, size));
    return w.systems.size() - 1;
  };
  const std::vector<std::pair<std::string, std::size_t>> small = {
      {"maj", 9},  {"hqs", 2},    {"cw", 2},   {"wheel", 10},
      {"maj", 11}, {"wheel", 12}, {"maj", 13}};
  for (const auto& [family, size] : small) {
    const std::size_t s = add_system(family, size);
    for (int j = 0; j < 12; ++j)
      w.solves.push_back({Kind::kPpc, s, jitter(0.06 + 0.08 * j)});
    w.solves.push_back({Kind::kPc, s, 0.0});
    w.solves.push_back({Kind::kTree, s, jitter(0.5)});
  }
  const std::vector<std::pair<std::string, std::size_t>> medium = {
      {"wheel", 14}, {"maj", 15}, {"tree", 3}};
  for (const auto& [family, size] : medium) {
    const std::size_t s = add_system(family, size);
    for (double p : {0.2, 0.5, 0.8})
      w.solves.push_back({Kind::kPpc, s, jitter(p)});
    w.solves.push_back({Kind::kPc, s, 0.0});
  }
  const std::size_t wheel16 = add_system("wheel", 16);
  w.solves.push_back({Kind::kPpc, wheel16, jitter(0.3)});
  w.solves.push_back({Kind::kPc, wheel16, 0.0});
  return w;
}

const char* span_name(Kind kind) {
  switch (kind) {
    case Kind::kPpc:
      return "exact.ppc";
    case Kind::kPc:
      return "exact.pc";
    case Kind::kTree:
      return "exact.tree";
  }
  return "exact.unknown";
}

// One solve's value: PPC_p, PC, or the optimal tree's expected depth.
double solve(const ExactWorkload& w, const Solve& s, std::size_t threads,
             double* tree_depth) {
  qps::exact::DpOptions options;
  options.threads = threads;
  const qps::QuorumSystem& system = *w.systems[s.system];
  switch (s.kind) {
    case Kind::kPpc:
      return qps::ppc_exact(system, s.p, options);
    case Kind::kPc:
      return static_cast<double>(qps::pc_exact(system, options));
    case Kind::kTree: {
      const auto tree = qps::optimal_ppc_tree(system, s.p, options);
      *tree_depth = static_cast<double>(tree->depth());
      return tree->expected_depth(s.p);
    }
  }
  return 0.0;
}

struct PassValues {
  std::vector<double> values;
  std::vector<double> depths;  // decision-tree depth (tree solves only)
};

PassValues run_pass(const ExactWorkload& w, std::size_t threads,
                    std::vector<double>* op_ms, SpanLog* log) {
  PassValues pass;
  pass.values.reserve(w.solves.size());
  pass.depths.assign(w.solves.size(), 0.0);
  for (std::size_t i = 0; i < w.solves.size(); ++i) {
    const Solve& s = w.solves[i];
    const auto t0 = Clock::now();
    if (log != nullptr) {
      SpanScope span(*log, span_name(s.kind));
      pass.values.push_back(solve(w, s, threads, &pass.depths[i]));
    } else {
      pass.values.push_back(solve(w, s, threads, &pass.depths[i]));
    }
    if (op_ms != nullptr)
      op_ms->push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return pass;
}

// Per solve: PC = n for the evasive families (Lemma 2.2: Maj, Wheel, CW,
// Tree), 1 <= PC <= n otherwise; 1 <= PPC_p <= PC; PPC(Wheel) <= 3; the
// optimal tree's expected depth equals PPC_p at its p and its depth is at
// most PC; and every value is bit-identical to the first pass (the kernel
// is deterministic for any thread count).
class PassChecker {
 public:
  explicit PassChecker(const ExactWorkload& w) : w_(w) {}

  void check(const PassValues& pass, Outcome& out) {
    const bool first_pass = first_.values.empty();
    if (first_pass) {
      first_ = pass;
      pc_.assign(w_.systems.size(), 0.0);
      for (std::size_t i = 0; i < w_.solves.size(); ++i)
        if (w_.solves[i].kind == Kind::kPc) pc_[w_.solves[i].system] = pass.values[i];
    }
    for (std::size_t i = 0; i < w_.solves.size(); ++i) {
      const Solve& s = w_.solves[i];
      const std::string& label = w_.labels[s.system];
      const double n = static_cast<double>(w_.systems[s.system]->universe_size());
      const double v = pass.values[i];
      bool ok = v == first_.values[i] && pass.depths[i] == first_.depths[i];
      if (s.kind == Kind::kPc) {
        const bool evasive = label.rfind("hqs", 0) != 0;
        ok = ok && (evasive ? v == n : v >= 1.0 && v <= n);
      } else {
        ok = ok && v >= 1.0 && v <= pc_[s.system] + 1e-9;
        if (label.rfind("wheel", 0) == 0) ok = ok && v <= 3.0;
      }
      if (s.kind == Kind::kTree && first_pass) {
        const double ppc = qps::ppc_exact(*w_.systems[s.system], s.p);
        ok = ok && std::abs(v - ppc) <= 1e-9 * n && pass.depths[i] <= pc_[s.system];
      }
      out.op(ok, label + " " + span_name(s.kind) + " p=" + std::to_string(s.p) +
                     " (pass " + std::to_string(passes_) + ")");
    }
    ++passes_;
  }

 private:
  const ExactWorkload& w_;
  std::size_t passes_ = 0;
  PassValues first_;
  std::vector<double> pc_;
};

double timed_pass(const ExactWorkload& w, std::size_t threads, SpanLog* log,
                  PassChecker& checker, Outcome& out) {
  const auto t0 = Clock::now();
  const PassValues pass = run_pass(w, threads, nullptr, log);
  const double seconds = seconds_between(t0, Clock::now());
  checker.check(pass, out);
  return seconds;
}

void traced_exact(const ExactWorkload& w, const Args& args, Outcome& out) {
  SpanLog log;
  std::map<std::string, double> v;
  auto& registry = qps::obs::MetricsRegistry::instance();
  qps::obs::Histogram& level_us = registry.histogram("exact/level_us");
  v["engine.decomp_match"] = ledger_cut(args.seed, log, v) ? 1.0 : 0.0;
  PassChecker checker(w);
  std::vector<double> untraced = {
      timed_pass(w, args.threads, nullptr, checker, out)};
  // The traced pass: one span per solve, and the kernel's own level
  // histogram and counters read around it.
  const std::uint64_t level_sum0 = level_us.sum();
  const std::uint64_t levels0 = counter_value("exact/levels");
  const std::uint64_t solves0 = counter_value("exact/solves");
  const std::size_t first = log.size();
  std::vector<double> traced = {timed_pass(w, args.threads, &log, checker, out)};
  const auto totals = log.totals(first, log.size());
  const double level_ms = static_cast<double>(level_us.sum() - level_sum0) / 1e3;
  v["exact.level_ms_sum"] = level_ms;
  v["exact.levels"] = static_cast<double>(counter_value("exact/levels") - levels0);
  v["exact.solves"] = static_cast<double>(counter_value("exact/solves") - solves0);
  double solve_ns = 0.0;
  for (const auto& [name, t] : totals) solve_ns += t.total_ns;
  v["exact.states_per_s"] = pass_states(w) / (solve_ns / 1e9);
  for (const Kind kind : {Kind::kPpc, Kind::kPc, Kind::kTree}) {
    const SpanLog::Totals& t = totals.at(span_name(kind));
    v[std::string(span_name(kind)) + "_ms"] =
        t.total_ns / 1e6 / static_cast<double>(t.count);
  }
  v["exact.outside_levels_frac"] = 1.0 - level_ms * 1e6 / solve_ns;

  untraced.push_back(timed_pass(w, args.threads, nullptr, checker, out));
  traced.push_back(timed_pass(w, args.threads, &log, checker, out));
  const double t4 = median(untraced);
  v["trace.overhead_frac"] = median(traced) / t4 - 1.0;
  // Single-thread baseline of the same pass.
  const double t1 = timed_pass(w, 1, nullptr, checker, out);
  v["exact.parallel_eff"] = t1 / (static_cast<double>(args.threads) * t4);
  fill_per_layer(out, v);
  log.write_chrome_json(args.work_dir + "/trace-exact_dp.json");
}

}  // namespace

void run_exact_dp(const Args& args, Outcome& out) {
  ExactWorkload w;
  // Set-up: systems built (characteristic data), and the kernel's pool
  // warmed by one untimed solve.
  SetupTimer setup([&] {
    w = build_exact(args.seed);
    qps::exact::DpOptions options;
    options.threads = args.threads;
    qps::ppc_exact(*w.systems[kWarmSystem], 0.5, options);
  });
  setup.run();
  if (args.trace) {
    traced_exact(w, args, out);
    return;
  }
  PassChecker checker(w);
  PassValues last;
  const Timing timing = timed_passes(
      args.seconds, 3,
      [&](std::vector<double>& op_ms) {
        last = run_pass(w, args.threads, &op_ms, nullptr);
      },
      [&] {
        checker.check(last, out);
        setup.run();
      });
  report_end_to_end(out, setup.median_s(), timing, static_cast<double>(w.solves.size()),
                    pass_states(w));
}

}  // namespace perfbench
