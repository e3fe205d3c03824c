#include "core/algorithms/probe_tree.h"

#include <array>
#include <cstdint>
#include <vector>

#include "core/algorithms/witness_support.h"
#include "core/engine/batch_kernel.h"
#include "util/require.h"

namespace qps {

namespace {

using witness_support::add;
using witness_support::singleton;
using witness_support::unite;

// A subtree's witness: its color and its support (witness_support.h).
template <typename Support>
struct TreeWitness {
  Color color = Color::kRed;
  Support elems{};
};

template <typename Support>
Witness materialize(const TreeWitness<Support>& tw, std::size_t n) {
  return {tw.color, witness_support::to_set(tw.elems, n)};
}

template <typename Support>
TreeWitness<Support> leaf_witness(Element v, Color c) {
  return {c, singleton<Support>(v)};
}

/// Combines subtree witnesses with the probed root into a witness for the
/// whole subtree: {root} + matching subtree quorum, or both subtree quorums.
template <typename Support>
TreeWitness<Support> combine_with_root(Element root, Color root_color,
                                       TreeWitness<Support> first,
                                       TreeWitness<Support> second) {
  if (first.color == root_color) {
    add(first.elems, root);
    return first;
  }
  if (second.color == root_color) {
    add(second.elems, root);
    return second;
  }
  QPS_CHECK(first.color == second.color,
            "subtree witnesses opposing the root must agree");
  unite(first.elems, second.elems);
  return first;
}

template <typename Support>
TreeWitness<Support> probe_tree_rec(const TreeSystem& tree, Element v,
                                    ProbeSession& session) {
  if (tree.is_leaf(v)) return leaf_witness<Support>(v, session.probe(v));
  const Color root_color = session.probe(v);
  TreeWitness<Support> right =
      probe_tree_rec<Support>(tree, TreeSystem::right_child(v), session);
  if (right.color == root_color) {
    add(right.elems, v);
    return right;
  }
  TreeWitness<Support> left =
      probe_tree_rec<Support>(tree, TreeSystem::left_child(v), session);
  return combine_with_root(v, root_color, std::move(right), std::move(left));
}

// R_Probe_Tree pre-draws one plan per internal node, in node-index order,
// BEFORE the recursion starts: the draw sequence is then independent of the
// trial's control flow (which subtrees get visited).  Unvisited nodes'
// plans are simply never read.
class TreePlanBuffer {
 public:
  /// Fills plans[v] = Uniform{0,1,2} for every internal node v (nodes with
  /// children: v < n/2) and returns the buffer.
  const std::uint8_t* draw(const TreeSystem& tree, Rng& rng) {
    const std::size_t internal = tree.universe_size() / 2;
    std::uint8_t* plans = slots(internal);
    for (std::size_t v = 0; v < internal; ++v)
      plans[v] = static_cast<std::uint8_t>(rng.below(3));
    return plans;
  }

  /// Fills plans[v] from lane `lane` of a group drawn by draw_tree_plans
  /// (stride 1): the plan whose mask holds the lane's bit.
  const std::uint8_t* from_lane(const TreeSystem& tree,
                                const std::uint64_t* masks, std::size_t lane) {
    const std::size_t internal = tree.universe_size() / 2;
    std::uint8_t* plans = slots(internal);
    for (std::size_t v = 0; v < internal; ++v)
      plans[v] = static_cast<std::uint8_t>(
          ((masks[v * 3 + 1] >> lane) & 1ULL) |
          (((masks[v * 3 + 2] >> lane) & 1ULL) << 1));
    return plans;
  }

 private:
  /// Stack storage up to 512 internal nodes -- height 9, n = 1023 -- so
  /// the n <= 64 hot path stays allocation-free.
  std::uint8_t* slots(std::size_t internal) {
    if (internal <= stack_.size()) return stack_.data();
    heap_.resize(internal);
    return heap_.data();
  }

  std::array<std::uint8_t, 512> stack_;
  std::vector<std::uint8_t> heap_;
};

/// Draws one 64-lane group's plans for the internal nodes [0, internal),
/// in node order: node v's trit is a lane-major draw_lane_below(3) whose
/// planes (a, c) exclude a & c, so plan = a + 2c, and the plan masks land
/// at out[(v*3 + plan) * stride] -- rtree_scan's layout for stride W.
void draw_tree_plans(Rng& rng, std::size_t internal, std::uint64_t* out,
                     std::size_t stride) {
  std::uint64_t bits[2];
  for (std::size_t v = 0; v < internal; ++v) {
    draw_lane_below(rng, 3, bits);
    std::uint64_t* node = out + v * 3 * stride;
    node[0] = ~(bits[0] | bits[1]);
    node[stride] = bits[0];
    node[2 * stride] = bits[1];
  }
}

template <typename Support>
TreeWitness<Support> r_probe_tree_rec(const TreeSystem& tree, Element v,
                                      ProbeSession& session,
                                      const std::uint8_t* plans) {
  if (tree.is_leaf(v)) return leaf_witness<Support>(v, session.probe(v));
  const Element left = TreeSystem::left_child(v);
  const Element right = TreeSystem::right_child(v);
  const std::uint8_t plan = plans[v];
  if (plan == 0 || plan == 1) {
    // Root together with one subtree; the sibling only on a color mismatch.
    const Element primary = plan == 0 ? right : left;
    const Element sibling = plan == 0 ? left : right;
    const Color root_color = session.probe(v);
    TreeWitness<Support> first =
        r_probe_tree_rec<Support>(tree, primary, session, plans);
    if (first.color == root_color) {
      add(first.elems, v);
      return first;
    }
    TreeWitness<Support> second =
        r_probe_tree_rec<Support>(tree, sibling, session, plans);
    return combine_with_root(v, root_color, std::move(first),
                             std::move(second));
  }
  // Both subtrees first; the root only if their witnesses disagree.
  TreeWitness<Support> wl = r_probe_tree_rec<Support>(tree, left, session,
                                                      plans);
  TreeWitness<Support> wr = r_probe_tree_rec<Support>(tree, right, session,
                                                      plans);
  if (wl.color == wr.color) {
    unite(wl.elems, wr.elems);
    return wl;
  }
  const Color root_color = session.probe(v);
  TreeWitness<Support>& match = wl.color == root_color ? wl : wr;
  add(match.elems, v);
  return std::move(match);
}

/// R_Probe_Tree on drawn plans.
Witness run_tree_plans(const TreeSystem& tree, ProbeSession& session,
                       const std::uint8_t* plans) {
  const std::size_t n = tree.universe_size();
  return witness_support::with_support(n, [&](auto none) {
    using Support = decltype(none);
    return materialize(
        r_probe_tree_rec<Support>(tree, TreeSystem::kRoot, session, plans), n);
  });
}

}  // namespace

Witness ProbeTree::run_with(TrialWorkspace& /*workspace*/,
                            ProbeSession& session, Rng& /*rng*/) const {
  const std::size_t n = tree_->universe_size();
  return witness_support::with_support(n, [&](auto none) {
    using Support = decltype(none);
    return materialize(
        probe_tree_rec<Support>(*tree_, TreeSystem::kRoot, session), n);
  });
}

bool ProbeTree::supports_batch(std::size_t universe_size) const {
  return universe_size == tree_->universe_size();
}

void ProbeTree::run_batch(BatchTrialBlock& block, Rng& /*rng*/) const {
  QPS_REQUIRE(block.universe_size() == tree_->universe_size(),
              "batch block over the wrong universe");
  block.kernels().tree_scan(block.view());
}

Witness RProbeTree::run_with(TrialWorkspace& /*workspace*/,
                             ProbeSession& session, Rng& rng) const {
  TreePlanBuffer plans;
  return run_tree_plans(*tree_, session, plans.draw(*tree_, rng));
}

bool RProbeTree::supports_batch(std::size_t universe_size) const {
  return universe_size == tree_->universe_size();
}

void RProbeTree::run_batch(BatchTrialBlock& block, Rng& rng) const {
  const std::size_t n = tree_->universe_size();
  QPS_REQUIRE(block.universe_size() == n,
              "batch block over the wrong universe");
  // Each group's plans go straight into lane word k of the per-node mask
  // triples: bit t of plans[(v*3 + p)*W + k] says lane 64k+t picked plan p
  // at node v.
  const std::size_t w = block.width();
  std::uint64_t* plans = block.plan_masks();
  for (std::size_t k = 0; k < block.group_count(); ++k)
    draw_tree_plans(rng, n / 2, plans + k, w);
  block.kernels().rtree_scan(block.view(), plans);
}

std::size_t RProbeTree::lane_choice_words() const {
  return tree_->universe_size() / 2 * 3;
}

void RProbeTree::draw_lane_choices(Rng& rng, std::uint64_t* choices) const {
  draw_tree_plans(rng, tree_->universe_size() / 2, choices, 1);
}

Witness RProbeTree::run_lane(TrialWorkspace& /*workspace*/,
                             ProbeSession& session,
                             const std::uint64_t* choices,
                             std::size_t lane) const {
  TreePlanBuffer plans;
  return run_tree_plans(*tree_, session,
                        plans.from_lane(*tree_, choices, lane));
}

}  // namespace qps
