// Probing algorithms for the Tree system.
//
// Probe_Tree (Section 3.3, Prop. 3.6): probe the root, recursively find a
// witness for the right subtree, and descend into the left subtree only if
// the right witness's color differs from the root's.  Expected cost
// O(n^{log2(1+p)}) in the probabilistic model, O(n^0.585) at p = 1/2.
//
// R_Probe_Tree (Section 4.3, Thm 4.7): at every node pick uniformly one of
// three plans -- {root+right, then left}, {root+left, then right}, or
// {both subtrees, then root} -- giving worst-case expected cost
// <= 5n/6 + 1/6 against the deterministic lower bound PC(Tree) = n.
#pragma once

#include "core/strategy.h"
#include "quorum/tree_system.h"

namespace qps {

class ProbeTree final : public ProbeStrategy {
 public:
  explicit ProbeTree(const TreeSystem& tree) : tree_(&tree) {}
  std::string name() const override { return "Probe_Tree"; }
  /// Allocation-free for n <= 64 (word-mask supports).
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel: one masked recursion over the tree, lanes
  /// that disagree with their root color descending into the left subtree.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;

 private:
  const TreeSystem* tree_;
};

class RProbeTree final : public ProbeStrategy {
 public:
  explicit RProbeTree(const TreeSystem& tree) : tree_(&tree) {}
  std::string name() const override { return "R_Probe_Tree"; }
  /// Allocation-free for n <= 64 (word-mask supports).
  Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                   Rng& rng) const override;
  /// Bit-sliced batch kernel: each group draws every internal node's plan
  /// lane-major, in node order, as a trit from two words (a, c) with
  /// rejection of a & c (plan = a + 2c), written straight into the
  /// kernel's per-node plan masks; one masked recursion then splits the
  /// lanes at each node by plan.  run_lane() runs the scalar plan-driven
  /// recursion on one lane's plans.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;
  std::size_t lane_choice_words() const override;
  void draw_lane_choices(Rng& rng, std::uint64_t* choices) const override;
  Witness run_lane(TrialWorkspace& workspace, ProbeSession& session,
                   const std::uint64_t* choices,
                   std::size_t lane) const override;

 private:
  const TreeSystem* tree_;
};

}  // namespace qps
