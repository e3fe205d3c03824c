// Monte-Carlo strategy E(p) curves: expected probes of the paper's Probe_*
// algorithms per family, across the p axis, on the sweep subsystem.
//
// This closes the Monte-Carlo half of the E(p) story: bench_exact_curves
// anchors PPC_p with exact Bellman solves, and this harness measures the
// concrete algorithms (Probe_Maj / Probe_Tree / Probe_HQS / Probe_CW and
// their randomized variants) on the same grid scheme -- same base seed,
// same family/size blocks, same p grid, and the same CRN-preserving seed
// derivation (core/sweep/sweep_spec.h), so exact and MC rows line up by
// (family, size, p) and curves along p share their random streams.  Every
// estimate runs on the zero-allocation engine hot path
// (core/engine/trial_workspace.h); results are bit-identical for any
// --threads or --workers value, which CI's bench-smoke job re-checks by
// diffing the JSON of two thread counts.
//
// Sweep flags: --workers K shards points across subprocesses,
// --checkpoint/--resume journals them, --point ID / --family TAG / --size N
// isolate slices (the CI smoke runs --family maj to stay fast).
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>

#include "bench/bench_common.h"
#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/estimator.h"
#include "core/expectation.h"
#include "core/formulas.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"

namespace {

using namespace qps;

// The crumbling walls under test; sweep points refer to them by index, as
// in bench_exact_curves, so the two harnesses' cw rows correspond.
const std::vector<std::vector<std::size_t>>& bench_walls() {
  static const std::vector<std::vector<std::size_t>> walls = {
      {1, 2}, {1, 2, 3}, {1, 2, 3, 4}};
  return walls;
}

std::unique_ptr<QuorumSystem> make_system(const std::string& family,
                                          std::size_t size) {
  if (family == "maj") return std::make_unique<MajoritySystem>(size);
  if (family == "tree") return std::make_unique<TreeSystem>(size);
  if (family == "hqs") return std::make_unique<HQSystem>(size);
  if (family == "cw")
    return std::make_unique<CrumblingWall>(bench_walls().at(size));
  throw std::invalid_argument("unknown sweep family " + family);
}

ProbeStrategyPtr make_strategy(const std::string& family,
                               const std::string& tag,
                               const QuorumSystem& system) {
  if (family == "maj") {
    const auto& maj = dynamic_cast<const MajoritySystem&>(system);
    if (tag == "det") return std::make_unique<ProbeMaj>(maj);
    if (tag == "R") return std::make_unique<RProbeMaj>(maj);
  } else if (family == "tree") {
    const auto& tree = dynamic_cast<const TreeSystem&>(system);
    if (tag == "det") return std::make_unique<ProbeTree>(tree);
    if (tag == "R") return std::make_unique<RProbeTree>(tree);
  } else if (family == "hqs") {
    const auto& hqs = dynamic_cast<const HQSystem&>(system);
    if (tag == "det") return std::make_unique<ProbeHQS>(hqs);
    if (tag == "R") return std::make_unique<RProbeHQS>(hqs);
    if (tag == "IR") return std::make_unique<IRProbeHQS>(hqs);
  } else if (family == "cw") {
    const auto& wall = dynamic_cast<const CrumblingWall&>(system);
    if (tag == "det") return std::make_unique<ProbeCW>(wall);
    if (tag == "R") return std::make_unique<RProbeCW>(wall);
  }
  throw std::invalid_argument("unknown strategy tag " + tag + " for family " +
                              family);
}

// The exact PPC_p of the point's strategy under i.i.d. failures, where a
// value is known: every det point of every family (the paper's
// recursions, pinned to the algorithms by brute force in test_formulas),
// R_Probe_Maj (the binomial mixture of Thm 4.2's urn), R_Probe_HQS and
// IR_Probe_HQS at h = 1 (they randomize only over automorphic children,
// so their PPC_p is Probe_HQS's), and IR_Probe_HQS at h = 2 (enumerated
// over all 2^9 colorings).
std::optional<double> exact_ppc(const sweep::SweepPoint& point,
                                std::size_t n) {
  const double p = point.p;
  if (point.strategy == "det") {
    if (point.family == "maj") return probe_maj_expected(n, p);
    if (point.family == "tree") return probe_tree_expected(point.size, p);
    if (point.family == "hqs") return probe_hqs_expected(point.size, p);
    if (point.family == "cw")
      return probe_cw_expected(bench_walls().at(point.size), p);
  }
  if (point.strategy == "R" && point.family == "maj")
    return r_probe_maj_ppc(n, p);
  if (point.family == "hqs") {
    if (point.strategy == "R" || (point.strategy == "IR" && point.size == 1))
      return probe_hqs_expected(point.size, p);
    if (point.strategy == "IR" && point.size == 2)
      return ir_probe_hqs_ppc(HQSystem(point.size), p);
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = qps::bench::parse_context(argc, argv);
  qps::bench::print_header(
      "Monte-Carlo strategy E(p) curves",
      "E[probes] of Probe_* / R_Probe_* per family across p; every det "
      "point, R_Probe_Maj, R_Probe_HQS and IR_Probe_HQS at h <= 2 match "
      "their exact PPC_p within 4xSEM",
      ctx);
  qps::bench::JsonReport report("mc_curves", ctx);

  const std::vector<double> ps =
      ctx.quick ? std::vector<double>{0.25, 0.5, 0.75}
                : std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9};

  // Same blocks as bench_exact_curves' exact grid (plus larger
  // beyond-DP-cap sizes for maj/tree), now with a strategy axis.
  sweep::SweepSpec spec("mc_curves", ctx.seed);
  if (ctx.quick) {
    spec.add_block("maj", {5, 7}, {"det", "R"});
    spec.add_block("tree", {2}, {"det", "R"});
    spec.add_block("hqs", {2}, {"det", "R", "IR"});
    spec.add_block("cw", {0, 1}, {"det", "R"});
  } else {
    spec.add_block("maj", {5, 7, 9, 11, 13, 21, 63}, {"det", "R"});
    spec.add_block("tree", {1, 2, 3, 4, 5}, {"det", "R"});
    spec.add_block("hqs", {1, 2, 3}, {"det", "R", "IR"});
    spec.add_block("cw", {0, 1, 2}, {"det", "R"});
  }
  spec.set_ps(ps);

  const auto evaluate = [&](const sweep::SweepPoint& point) {
    const auto system = make_system(point.family, point.size);
    const auto strategy = make_strategy(point.family, point.strategy, *system);
    return estimate_ppc(*system, *strategy, point.p,
                        ctx.engine_options_for(point));
  };
  const auto results = qps::bench::run_sweep(ctx, spec, evaluate);

  Table table({"family", "size", "n", "strategy", "p", "E[probes]", "sem",
               "trials"});
  for (const auto& result : results) {
    if (result.skipped) continue;
    const auto system = make_system(result.point.family, result.point.size);
    const double mean = result.stats.mean();
    const std::size_t n = system->universe_size();
    table.add_row({result.point.family,
                   Table::num(static_cast<long long>(result.point.size)),
                   Table::num(static_cast<long long>(n)),
                   result.point.strategy, Table::num(result.point.p, 2),
                   Table::num(mean, 4), Table::num(result.stats.sem(), 5),
                   Table::num(static_cast<long long>(result.stats.count()))});

    // Sanity: a witness never needs more than n probes and always at
    // least one.
    report.add_check("bounds/" + result.point.id,
                     mean >= 1.0 && mean <= static_cast<double>(n));
    // Exact anchors: the strategy's closed-form PPC_p, where one exists.
    if (const auto exact_value = exact_ppc(result.point, n)) {
      const double gap = mean - *exact_value;
      report.add_check(
          "matches_exact/" + result.point.id,
          std::abs(gap) <= std::max(4.0 * result.stats.sem(), 1e-9));
    }
  }
  table.print(std::cout);
  report.add_sweep("mc_curves", results);

  report.write_if_requested();
  return report.all_pass() ? 0 : 1;
}
