// Probing algorithms for the Hierarchical Quorum System.
//
// The HQS characteristic function is a ternary tree of 2-of-3 majority
// gates over the leaves; finding a witness means evaluating the root and
// exhibiting, at every gate, two agreeing children (the minterm/maxterm
// support, which for this self-dual system is a monochromatic quorum).
//
// Probe_HQS (Section 3.4, Thms 3.8/3.9): deterministic left-to-right
// evaluation, skipping the third child when the first two agree.  Optimal
// in the probabilistic model at p = 1/2, costing exactly n^{log3(5/2)}.
//
// R_Probe_HQS (Prop. 4.9, due to Boppana): evaluate two children chosen at
// random, the third only on disagreement -- O(n^{log3(8/3)}) = O(n^0.893)
// worst-case expected probes.
//
// IR_Probe_HQS (Fig. 8, Thm 4.10): after fully evaluating one random child,
// peek at one random grandchild of the next child; if it contradicts the
// first child's value, jump to the third child first.  Improves the
// exponent to ~0.89 (see EXPERIMENTS.md for the constant).
//
// All three have bit-sliced batch kernels (core/engine/simd.h); the two
// randomized ones draw one child order per gate up front, lane-major, and
// share that draw and its layout.
#pragma once

#include "core/strategy.h"
#include "quorum/hqs.h"

namespace qps {

class ProbeHQS final : public ProbeStrategy {
 public:
  explicit ProbeHQS(const HQSystem& hqs) : hqs_(&hqs) {}
  std::string name() const override { return "Probe_HQS"; }
  /// Allocation-free for n <= 64 (word-mask supports).
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel: one masked gate-tree walk, only the lanes
  /// whose first two children disagree visiting the third.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;

 private:
  const HQSystem* hqs_;
};

class RProbeHQS final : public ProbeStrategy {
 public:
  explicit RProbeHQS(const HQSystem& hqs) : hqs_(&hqs) {}
  std::string name() const override { return "R_Probe_HQS"; }
  /// Allocation-free for n <= 64 (word-mask supports).
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel: each group draws every gate's child order
  /// lane-major, in gate order, from three words (x0, x1, x2) with
  /// rejection of x1 & x2 (first child = x1 + 2 x2, x0 picks the second
  /// of the remaining two), written straight into the kernel's 6 masks
  /// per gate; a two-phase masked walk then evaluates each lane's first
  /// two picks and, on disagreement, its third.  run_lane() runs the
  /// scalar order-driven recursion on one lane's orders.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;
  std::size_t lane_choice_words() const override;
  void draw_lane_choices(Rng& rng, std::uint64_t* choices) const override;
  Witness run_lane(TrialWorkspace& workspace, ProbeSession& session,
                   const std::uint64_t* choices,
                   std::size_t lane) const override;

 private:
  const HQSystem* hqs_;
};

class IRProbeHQS final : public ProbeStrategy {
 public:
  explicit IRProbeHQS(const HQSystem& hqs) : hqs_(&hqs) {}
  std::string name() const override { return "IR_Probe_HQS"; }
  /// Allocation-free for n <= 64 (word-mask supports).
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel on R_Probe_HQS's draws: every gate's child
  /// order is drawn up front, lane-major, into the same 6 masks per gate
  /// (each gate's children are shuffled at most once per trial, so this
  /// has the law of Fig. 8's shuffles at first visit); irhqs_scan then
  /// walks the gates with the lanes split by how they enter each node --
  /// ir_eval, eval_node, the grandchild peek, or the peeked child's
  /// completion.  run_lane() runs the scalar order-driven recursion on one
  /// lane's orders, run_with() on orders drawn per trial.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;
  std::size_t lane_choice_words() const override;
  void draw_lane_choices(Rng& rng, std::uint64_t* choices) const override;
  Witness run_lane(TrialWorkspace& workspace, ProbeSession& session,
                   const std::uint64_t* choices,
                   std::size_t lane) const override;

 private:
  const HQSystem* hqs_;
};

}  // namespace qps
