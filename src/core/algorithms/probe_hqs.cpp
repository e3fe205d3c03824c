#include "core/algorithms/probe_hqs.h"

#include <array>
#include <cstdint>
#include <vector>

#include "core/algorithms/witness_support.h"
#include "core/engine/batch_kernel.h"
#include "util/require.h"

namespace qps {

namespace {

using witness_support::singleton;
using witness_support::unite;

// Result of evaluating one gate: its boolean value and the supporting
// leaves (two agreeing child supports per gate, witness_support.h).
template <typename Support>
struct Eval {
  bool value = false;
  Support support{};
};

template <typename Support>
Eval<Support> leaf_eval(Element leaf, ProbeSession& session) {
  return {session.probe(leaf) == Color::kGreen, singleton<Support>(leaf)};
}

/// Merges two agreeing child evaluations into the parent's evaluation.
template <typename Support>
Eval<Support> merge_pair(Eval<Support> a, const Eval<Support>& b) {
  QPS_CHECK(a.value == b.value, "merge_pair needs agreeing children");
  unite(a.support, b.support);
  return a;
}

/// Given three child evaluations where the first two disagree, the gate
/// value is the third child's; support = third + the matching sibling.
template <typename Support>
Eval<Support> merge_tiebreak(const Eval<Support>& first,
                             const Eval<Support>& second,
                             Eval<Support> third) {
  QPS_CHECK(first.value != second.value, "tiebreak needs a disagreement");
  unite(third.support,
        first.value == third.value ? first.support : second.support);
  return third;
}

template <typename Support>
Witness materialize(const Eval<Support>& eval, std::size_t n) {
  return {eval.value ? Color::kGreen : Color::kRed,
          witness_support::to_set(eval.support, n)};
}

// ---------------------------------------------------------------- Probe_HQS

template <typename Support>
Eval<Support> probe_hqs_rec(std::size_t level, std::size_t index,
                            ProbeSession& session) {
  if (level == 0)
    return leaf_eval<Support>(static_cast<Element>(index), session);
  Eval<Support> first = probe_hqs_rec<Support>(level - 1, index * 3, session);
  Eval<Support> second =
      probe_hqs_rec<Support>(level - 1, index * 3 + 1, session);
  if (first.value == second.value)
    return merge_pair(std::move(first), second);
  Eval<Support> third =
      probe_hqs_rec<Support>(level - 1, index * 3 + 2, session);
  return merge_tiebreak(first, second, std::move(third));
}

// ---------------------------------------------- R_Probe_HQS / IR_Probe_HQS

/// Gate index in the level-major enumeration (level height..1, index
/// ascending): the levels above `level` contribute (3^(height-level)-1)/2
/// gates.  Mirrors rhqs_gate in the batch kernels (simd_kernels.inc.h).
std::size_t hqs_gate(std::size_t height, std::size_t level,
                     std::size_t index) {
  std::size_t pow3 = 1;
  for (std::size_t j = level; j < height; ++j) pow3 *= 3;
  return (pow3 - 1) / 2 + index;
}

// R_Probe_HQS and IR_Probe_HQS pre-draw one random child order per gate,
// in gate-id order, BEFORE the recursion starts: the draw sequence is then
// independent of the trial's control flow (which gates get visited).
// Unvisited gates' orders are simply never read.  Each gate's order is
// encoded as first*3 + second (relative child indices; third = 3 - first -
// second).
class HqsOrderBuffer {
 public:
  /// Fills one shuffled order per gate ((n-1)/2 gates) and returns the
  /// buffer.
  const std::uint8_t* draw(const HQSystem& hqs, Rng& rng) {
    const std::size_t gates = (hqs.universe_size() - 1) / 2;
    std::uint8_t* orders = slots(gates);
    for (std::size_t g = 0; g < gates; ++g) {
      std::array<std::uint8_t, 3> ord = {0, 1, 2};
      rng.shuffle_array(ord);
      orders[g] = static_cast<std::uint8_t>(ord[0] * 3 + ord[1]);
    }
    return orders;
  }

  /// Fills the orders from lane `lane` of a group drawn by draw_hqs_orders
  /// (stride 1): the slots whose masks hold the lane's bit.
  const std::uint8_t* from_lane(const HQSystem& hqs,
                                const std::uint64_t* masks, std::size_t lane) {
    const std::size_t gates = (hqs.universe_size() - 1) / 2;
    std::uint8_t* orders = slots(gates);
    for (std::size_t g = 0; g < gates; ++g) {
      const std::uint64_t* gate = masks + g * 6;
      std::uint8_t first = 0;
      std::uint8_t second = 0;
      for (std::uint8_t c = 0; c < 3; ++c) {
        if ((gate[c] >> lane) & 1ULL) first = c;
        if ((gate[3 + c] >> lane) & 1ULL) second = c;
      }
      orders[g] = static_cast<std::uint8_t>(first * 3 + second);
    }
    return orders;
  }

 private:
  /// Stack storage up to 512 gates -- height 6, n = 729 -- so the n <= 64
  /// hot path stays allocation-free.
  std::uint8_t* slots(std::size_t gates) {
    if (gates <= stack_.size()) return stack_.data();
    heap_.resize(gates);
    return heap_.data();
  }

  std::array<std::uint8_t, 512> stack_;
  std::vector<std::uint8_t> heap_;
};

/// Draws one 64-lane group's child orders for `gates` gates, in gate-id
/// order: gate g's order is a lane-major draw_lane_below(6) whose planes
/// (x0, x1, x2) exclude x1 & x2; the first child is x1 + 2 x2, and x0
/// picks the second among the remaining two (0: the lower index, 1: the
/// higher).  Writes the 6 masks per gate rhqs_scan and irhqs_scan read, at
/// out[(g*6 + slot) * stride]: slot c holds the lanes whose first child is
/// c, slot 3 + c those whose second is c.
void draw_hqs_orders(Rng& rng, std::size_t gates, std::uint64_t* out,
                     std::size_t stride) {
  std::uint64_t x[3];
  for (std::size_t g = 0; g < gates; ++g) {
    draw_lane_below(rng, 6, x);
    const std::uint64_t f0 = ~(x[1] | x[2]);
    const std::uint64_t f1 = x[1];
    const std::uint64_t f2 = x[2];
    std::uint64_t* gate = out + g * 6 * stride;
    gate[0] = f0;
    gate[stride] = f1;
    gate[2 * stride] = f2;
    gate[3 * stride] = ~x[0] & (f1 | f2);
    gate[4 * stride] = (~x[0] & f0) | (x[0] & f2);
    gate[5 * stride] = x[0] & (f0 | f1);
  }
}

/// Draws each group's gate orders straight into lane word k of the block's
/// plan masks (6 per gate: slot c = lanes that picked child c first, slot
/// 3+c = lanes that picked it second) and returns them.
const std::uint64_t* draw_block_orders(const HQSystem& hqs,
                                       BatchTrialBlock& block, Rng& rng) {
  QPS_REQUIRE(block.universe_size() == hqs.universe_size(),
              "batch block over the wrong universe");
  const std::size_t w = block.width();
  std::uint64_t* orders = block.plan_masks();
  for (std::size_t k = 0; k < block.group_count(); ++k)
    draw_hqs_orders(rng, (hqs.universe_size() - 1) / 2, orders + k, w);
  return orders;
}

/// Gate (level, index)'s drawn child order, as child indices.
struct GateOrder {
  std::size_t first, second, third;
};

GateOrder gate_order(const std::uint8_t* orders, std::size_t height,
                     std::size_t level, std::size_t index) {
  const std::uint8_t code = orders[hqs_gate(height, level, index)];
  const std::size_t c0 = code / 3;
  const std::size_t c1 = code % 3;
  return {index * 3 + c0, index * 3 + c1, index * 3 + (3 - c0 - c1)};
}

template <typename Support>
Eval<Support> ir_eval(std::size_t height, std::size_t level,
                      std::size_t index, ProbeSession& session,
                      const std::uint8_t* orders);

/// Evaluates gate (level, index) in its drawn order: the first two
/// children, the third only on disagreement.  R_Probe_HQS evaluates every
/// child the same way; IR_Probe_HQS's "evaluate a node" (Fig. 8, kIr)
/// evaluates them with ir_eval, so a height-(h-1) node issues calls at
/// height h-2.
template <bool kIr, typename Support>
Eval<Support> eval_node(std::size_t height, std::size_t level,
                        std::size_t index, ProbeSession& session,
                        const std::uint8_t* orders) {
  if (level == 0)
    return leaf_eval<Support>(static_cast<Element>(index), session);
  const GateOrder order = gate_order(orders, height, level, index);
  const auto child = [&](std::size_t c) {
    if constexpr (kIr)
      return ir_eval<Support>(height, level - 1, c, session, orders);
    else
      return eval_node<false, Support>(height, level - 1, c, session, orders);
  };
  Eval<Support> first = child(order.first);
  Eval<Support> second = child(order.second);
  if (first.value == second.value)
    return merge_pair(std::move(first), second);
  Eval<Support> third = child(order.third);
  return merge_tiebreak(first, second, std::move(third));
}

// ------------------------------------------------------------- IR_Probe_HQS
//
// Every gate's children are shuffled at most once per trial -- by the
// gate's own ir_eval or eval_node, or, for the second child r2 of an
// ir_eval, by the grandchild peek, whose order complete_node then
// finishes -- so IR_Probe_HQS reads the same up-front per-gate orders as
// R_Probe_HQS, with the same law as a shuffle at each gate's first visit.

/// Finishes evaluating gate (level, index) -- the peeked r2 -- whose first
/// child in its drawn order is already known as `first`.
template <typename Support>
Eval<Support> complete_node(std::size_t height, std::size_t level,
                            std::size_t index, const Eval<Support>& first,
                            ProbeSession& session,
                            const std::uint8_t* orders) {
  const GateOrder order = gate_order(orders, height, level, index);
  Eval<Support> second =
      ir_eval<Support>(height, level - 1, order.second, session, orders);
  if (first.value == second.value)
    return merge_pair(std::move(second), first);
  Eval<Support> third =
      ir_eval<Support>(height, level - 1, order.third, session, orders);
  return merge_tiebreak(first, second, std::move(third));
}

/// Fig. 8.  Heights 0/1 have no grandchildren and fall back to the plain
/// random evaluation.
template <typename Support>
Eval<Support> ir_eval(std::size_t height, std::size_t level,
                      std::size_t index, ProbeSession& session,
                      const std::uint8_t* orders) {
  if (level <= 1)
    return eval_node<true, Support>(height, level, index, session, orders);
  const GateOrder order = gate_order(orders, height, level, index);

  // Step 2: fully evaluate the first child.
  const Eval<Support> v1 =
      eval_node<true, Support>(height, level - 1, order.first, session, orders);

  // Step 4: peek at the second child's first grandchild in its order.
  const std::size_t peek =
      gate_order(orders, height, level - 1, order.second).first;
  const Eval<Support> g1 =
      ir_eval<Support>(height, level - 2, peek, session, orders);

  if (g1.value == v1.value) {
    // Step 5: the peek supports r1's value; finish r2.
    const Eval<Support> v2 =
        complete_node(height, level - 1, order.second, g1, session, orders);
    if (v2.value == v1.value) return merge_pair(v2, v1);
    const Eval<Support> v3 = eval_node<true, Support>(
        height, level - 1, order.third, session, orders);
    return merge_tiebreak(v1, v2, v3);
  }
  // Step 6: the peek contradicts r1; try the third child before finishing r2.
  const Eval<Support> v3 =
      eval_node<true, Support>(height, level - 1, order.third, session, orders);
  if (v3.value == v1.value) return merge_pair(v3, v1);
  const Eval<Support> v2 =
      complete_node(height, level - 1, order.second, g1, session, orders);
  return merge_tiebreak(v1, v3, v2);
}

/// R_Probe_HQS (kIr = false) or IR_Probe_HQS on drawn gate orders.
template <bool kIr>
Witness run_hqs_orders(const HQSystem& hqs, ProbeSession& session,
                       const std::uint8_t* orders) {
  const std::size_t n = hqs.universe_size();
  const std::size_t h = hqs.height();
  return witness_support::with_support(n, [&](auto none) {
    using Support = decltype(none);
    if constexpr (kIr)
      return materialize(ir_eval<Support>(h, h, 0, session, orders), n);
    else
      return materialize(eval_node<false, Support>(h, h, 0, session, orders),
                         n);
  });
}

}  // namespace

Witness ProbeHQS::run_with(TrialWorkspace& /*workspace*/,
                           ProbeSession& session, Rng& /*rng*/) const {
  const std::size_t n = hqs_->universe_size();
  return witness_support::with_support(n, [&](auto none) {
    using Support = decltype(none);
    return materialize(probe_hqs_rec<Support>(hqs_->height(), 0, session), n);
  });
}

bool ProbeHQS::supports_batch(std::size_t universe_size) const {
  return universe_size == hqs_->universe_size();
}

void ProbeHQS::run_batch(BatchTrialBlock& block, Rng& /*rng*/) const {
  QPS_REQUIRE(block.universe_size() == hqs_->universe_size(),
              "batch block over the wrong universe");
  block.kernels().hqs_scan(block.view(), hqs_->height());
}

Witness RProbeHQS::run_with(TrialWorkspace& /*workspace*/,
                            ProbeSession& session, Rng& rng) const {
  HqsOrderBuffer orders;
  return run_hqs_orders<false>(*hqs_, session, orders.draw(*hqs_, rng));
}

bool RProbeHQS::supports_batch(std::size_t universe_size) const {
  return universe_size == hqs_->universe_size();
}

void RProbeHQS::run_batch(BatchTrialBlock& block, Rng& rng) const {
  const std::uint64_t* orders = draw_block_orders(*hqs_, block, rng);
  block.kernels().rhqs_scan(block.view(), hqs_->height(), orders);
}

std::size_t RProbeHQS::lane_choice_words() const {
  return (hqs_->universe_size() - 1) / 2 * 6;
}

void RProbeHQS::draw_lane_choices(Rng& rng, std::uint64_t* choices) const {
  draw_hqs_orders(rng, (hqs_->universe_size() - 1) / 2, choices, 1);
}

Witness RProbeHQS::run_lane(TrialWorkspace& /*workspace*/,
                            ProbeSession& session,
                            const std::uint64_t* choices,
                            std::size_t lane) const {
  HqsOrderBuffer orders;
  return run_hqs_orders<false>(*hqs_, session,
                               orders.from_lane(*hqs_, choices, lane));
}

Witness IRProbeHQS::run_with(TrialWorkspace& /*workspace*/,
                             ProbeSession& session, Rng& rng) const {
  HqsOrderBuffer orders;
  return run_hqs_orders<true>(*hqs_, session, orders.draw(*hqs_, rng));
}

bool IRProbeHQS::supports_batch(std::size_t universe_size) const {
  return universe_size == hqs_->universe_size();
}

void IRProbeHQS::run_batch(BatchTrialBlock& block, Rng& rng) const {
  const std::uint64_t* orders = draw_block_orders(*hqs_, block, rng);
  block.kernels().irhqs_scan(block.view(), hqs_->height(), orders);
}

std::size_t IRProbeHQS::lane_choice_words() const {
  return (hqs_->universe_size() - 1) / 2 * 6;
}

void IRProbeHQS::draw_lane_choices(Rng& rng, std::uint64_t* choices) const {
  draw_hqs_orders(rng, (hqs_->universe_size() - 1) / 2, choices, 1);
}

Witness IRProbeHQS::run_lane(TrialWorkspace& /*workspace*/,
                             ProbeSession& session,
                             const std::uint64_t* choices,
                             std::size_t lane) const {
  HqsOrderBuffer orders;
  return run_hqs_orders<true>(*hqs_, session,
                              orders.from_lane(*hqs_, choices, lane));
}

}  // namespace qps
