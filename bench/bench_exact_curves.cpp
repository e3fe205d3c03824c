// Exact E(p) curves: PPC_p per family, computed by the dense DP kernel
// (core/exact/dp_kernel.h) on the sweep subsystem.
//
// The paper's E(p) figures are Monte-Carlo; this harness anchors them with
// exact values at DP-feasible sizes.  Section [A] sweeps a p-grid per
// family (Maj / Tree / HQS / CW) where every point is one exact Bellman
// solve -- sharded across --workers subprocesses, checkpointable with
// --checkpoint/--resume, re-runnable a point at a time with --point ID,
// and byte-identical for any worker or thread count.  Section [B]
// cross-validates: the kernel's own extracted optimal decision tree is run
// through the Monte-Carlo engine and the exact-vs-measured gap must sit
// inside 4 x SEM.  Section [C] (--timings) times the kernel at one thread
// against --threads workers and records a beyond-the-old-cap solve at
// n = --big-n (default 18, over the old n <= 14 ceiling) for the CI
// bench-smoke artifact.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "bench/bench_common.h"
#include "core/exact/decision_tree.h"
#include "core/exact/pc_exact.h"
#include "core/exact/ppc_exact.h"
#include "core/sweep/evaluators.h"
#include "quorum/majority.h"
#include "quorum/wheel.h"

namespace {

// Harness-specific flags, stripped from argv before the shared
// parse_context sees them (and before ctx.command is rebuilt for worker
// re-exec; both sections they control run in the parent only).
struct ExtraFlags {
  bool timings = false;    // --timings: run + record section [C]
  std::size_t big_n = 18;  // --big-n N: size of the beyond-the-cap solve
};

ExtraFlags extract_extra_flags(int& argc, char** argv) {
  ExtraFlags extra;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--timings") {
      extra.timings = true;
    } else if (arg == "--big-n" && i + 1 < argc) {
      extra.big_n = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg.rfind("--big-n=", 0) == 0) {
      extra.big_n = static_cast<std::size_t>(std::atoll(arg.c_str() + 8));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return extra;
}

template <class F>
double seconds(F&& f) {
  const auto start = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qps;
  const ExtraFlags extra = extract_extra_flags(argc, argv);
  const auto ctx = bench::parse_context(argc, argv);
  bench::print_header(
      "Exact E(p) curves (DP kernel)",
      "PPC_p(S) exact per family; MC of the optimal tree agrees within "
      "4xSEM",
      ctx);
  bench::JsonReport report("exact_curves", ctx);

  exact::DpOptions dp_options;
  dp_options.threads = ctx.threads;

  const std::vector<double> ps =
      ctx.quick ? std::vector<double>{0.25, 0.5, 0.75}
                : std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9};

  std::cout
      << "\n[A] Exact PPC_p grids (every point one Bellman solve; "
         "--workers shards\n    points, --checkpoint/--resume journals "
         "them, --point ID isolates one):\n";
  sweep::SweepSpec exact_spec("exact_curves", ctx.seed);
  if (ctx.quick) {
    exact_spec.add_block("maj", {3, 5, 7});
    exact_spec.add_block("tree", {1, 2});
    exact_spec.add_block("hqs", {1, 2});
    exact_spec.add_block("cw", {0, 1});
  } else {
    exact_spec.add_block("maj", {3, 5, 7, 9, 11, 13});
    exact_spec.add_block("tree", {1, 2, 3});
    exact_spec.add_block("hqs", {1, 2});
    exact_spec.add_block("cw", {0, 1, 2});
  }
  exact_spec.set_ps(ps);
  // One exact Bellman solve per point.  The coordinator, its --workers
  // children and its --connect workers all run this lambda, rebuilt from
  // the same flags, which is what makes their results interchangeable.
  const auto evaluate_exact = [&](const sweep::SweepPoint& point) {
    const auto system = sweep::standard_system(point.family, point.size);
    RunningStats stats;
    stats.add(ppc_exact(*system, point.p, dp_options));
    return stats;
  };
  const auto exact_results = bench::run_sweep(ctx, exact_spec, evaluate_exact);
  Table a({"family", "size", "n", "p", "PPC_p (exact)"});
  for (const auto& result : exact_results) {
    if (result.skipped) continue;
    const auto system =
        sweep::standard_system(result.point.family, result.point.size);
    a.add_row({result.point.family,
               Table::num(static_cast<long long>(result.point.size)),
               Table::num(static_cast<long long>(system->universe_size())),
               Table::num(result.point.p, 2),
               Table::num(result.stats.mean(), 6)});
  }
  a.print(std::cout);
  report.add_sweep("exact", exact_results);

  std::cout
      << "\n[B] Exact vs Monte-Carlo of the kernel's own optimal tree "
         "(CRN p axis):\n";
  // The "opt" strategy tag (the kernel's extracted optimal tree) keeps
  // these point ids distinct from section [A]'s exact ids, so one --point
  // flag isolates exactly one evaluation across the harness.
  sweep::SweepSpec mc_spec("exact_curves_mc", ctx.seed);
  mc_spec.add_block("maj",
                    ctx.quick ? std::vector<std::size_t>{5}
                              : std::vector<std::size_t>{5, 9},
                    {"opt"});
  mc_spec.add_block("tree", {2}, {"opt"});
  mc_spec.add_block("hqs", {2}, {"opt"});
  mc_spec.add_block("cw", {1}, {"opt"});
  mc_spec.set_ps(ps);
  const auto evaluate_mc = [&](const sweep::SweepPoint& point) {
    const auto system = sweep::standard_system(point.family, point.size);
    const auto tree = optimal_ppc_tree(*system, point.p, dp_options);
    const ParallelEstimator engine(ctx.engine_options_for(point));
    const std::size_t n = system->universe_size();
    return engine.run([&](Rng& rng) {
      const Coloring coloring = sample_iid_coloring(n, point.p, rng);
      return static_cast<std::uint32_t>(tree->evaluate(coloring).second);
    });
  };
  const auto mc_results = bench::run_sweep(ctx, mc_spec, evaluate_mc);
  Table b({"family", "size", "p", "exact", "mc_mean", "sem", "trials", "gap",
           "within 4sem"});
  for (const auto& result : mc_results) {
    if (result.skipped) continue;
    const auto system =
        sweep::standard_system(result.point.family, result.point.size);
    const double exact_value = ppc_exact(*system, result.point.p, dp_options);
    const double gap = result.stats.mean() - exact_value;
    const bool agree =
        std::abs(gap) <= std::max(4.0 * result.stats.sem(), 1e-9);
    report.add_check("mc_agrees/" + result.point.id, agree);
    b.add_row({result.point.family,
               Table::num(static_cast<long long>(result.point.size)),
               Table::num(result.point.p, 2), Table::num(exact_value, 4),
               Table::num(result.stats.mean(), 4),
               Table::num(result.stats.sem(), 5),
               Table::num(static_cast<long long>(result.stats.count())),
               Table::num(gap, 5), bench::holds(agree)});
  }
  b.print(std::cout);
  report.add_sweep("mc", mc_results);

  // Section [C] is opt-in (--timings) and parent-only: wall-clock numbers
  // are nondeterministic, and the CI bit-identity check cmp's the JSON of
  // two runs at different thread counts, which must stay byte-identical.
  if (extra.timings && !ctx.worker_mode && !ctx.socket_worker_mode()) {
    std::cout << "\n[C] Kernel at 1 thread vs --threads, and a "
                 "beyond-the-cap solve:\n";
    const std::size_t speed_n = ctx.quick ? 11 : 13;
    const MajoritySystem maj(speed_n);
    exact::DpOptions one_thread = dp_options;
    one_thread.threads = 1;
    const double kernel1_s = seconds([&] { ppc_exact(maj, 0.3, one_thread); });
    const double kernel_s = seconds([&] { ppc_exact(maj, 0.3, dp_options); });
    std::cout << "  PPC(Maj" << speed_n << ", p=0.3): kernel x1 "
              << kernel1_s << " s, kernel " << kernel_s << " s (speedup "
              << kernel1_s / kernel_s << "x)\n";
    report.add_metric("timing/thread_speedup_n" + std::to_string(speed_n),
                      kernel1_s / kernel_s);
    report.add_metric("timing/kernel_ppc_1thread_seconds", kernel1_s);
    report.add_metric("timing/kernel_ppc_seconds", kernel_s);

    if (extra.big_n >= 3) {
      const WheelSystem wheel(extra.big_n);
      std::size_t pc_value = 0;
      double ppc_value = 0.0;
      const double pc_s =
          seconds([&] { pc_value = pc_exact(wheel, dp_options); });
      const double ppc_s =
          seconds([&] { ppc_value = ppc_exact(wheel, 0.5, dp_options); });
      std::cout << "  n=" << extra.big_n << " (Wheel, over the old n<=14 "
                << "cap): PC " << pc_value << " in " << pc_s
                << " s, PPC_0.5 " << ppc_value << " in " << ppc_s << " s\n";
      report.add_metric("timing/big_n", static_cast<double>(extra.big_n));
      report.add_metric("timing/big_n_pc_seconds", pc_s);
      report.add_metric("timing/big_n_ppc_seconds", ppc_s);
      // Lemma 2.2 (Wheel is evasive) and Cor. 3.4 (Probe_CW <= 3 on the
      // Wheel) both hold at sizes the old engines never reached.
      report.add_check("big_n_wheel_evasive", pc_value == extra.big_n);
      report.add_check("big_n_ppc_below_three", ppc_value <= 3.0 + 1e-9);
    }
  }

  report.write_if_requested();
  return report.all_pass() ? 0 : 1;
}
