// Width-generic bodies of the bit-sliced scan kernels (see simd.h).
//
// NOT a normal header: simd.cpp textually includes it once per lane width,
// each time inside its own internal-linkage namespace after defining
//
//   constexpr std::size_t kW = <lane words per element>;
//
// so each width gets its own copy with fixed-trip kW loops.  Deliberately
// no #pragma once (it is included twice) and no #includes (they would land
// inside a namespace); simd.cpp provides <cstdint>/<cstddef> via
// core/engine/simd.h.
//
// Contract for every kernel: charge exactly the probes the scalar strategy
// performs on each lane's coloring, by ripple-carry adds into
// view.probe_planes.  Lanes outside view.active are never charged.

using U64 = std::uint64_t;

inline bool any_set(const U64* x) {
  U64 acc = 0;
  for (std::size_t k = 0; k < kW; ++k) acc |= x[k];
  return acc != 0;
}

inline void copy_w(U64* dst, const U64* src) {
  for (std::size_t k = 0; k < kW; ++k) dst[k] = src[k];
}

inline void zero_w(U64* x) {
  for (std::size_t k = 0; k < kW; ++k) x[k] = 0;
}

/// Increments the counters of the lanes set in `lanes`: a ripple-carry add
/// of one bit across the planes, kW lane words per plane in lock-step.
inline void tally_add(U64* planes, std::size_t plane_count, const U64* lanes) {
  U64 carry[kW];
  copy_w(carry, lanes);
  for (std::size_t b = 0; b < plane_count; ++b) {
    U64* plane = planes + b * kW;
    for (std::size_t k = 0; k < kW; ++k) {
      const U64 t = plane[k] & carry[k];
      plane[k] ^= carry[k];
      carry[k] = t;
    }
  }
}

inline void tally_clear(U64* planes, std::size_t plane_count) {
  for (std::size_t i = 0; i < plane_count * kW; ++i) planes[i] = 0;
}

/// eq[k] accumulates the lanes whose counter equals `value` (plane fold).
inline void tally_equals(const U64* planes, std::size_t plane_count,
                         std::size_t value, U64* eq) {
  for (std::size_t k = 0; k < kW; ++k) eq[k] = ~U64{0};
  for (std::size_t b = 0; b < plane_count; ++b) {
    const U64* plane = planes + b * kW;
    const bool bit = ((value >> b) & 1U) != 0;
    for (std::size_t k = 0; k < kW; ++k) eq[k] &= bit ? plane[k] : ~plane[k];
  }
}

// --------------------------------------------------------------- count_scan

void count_scan(const BlockView& v, std::size_t green_stop,
                std::size_t red_stop) {
  U64 active[kW];
  copy_w(active, v.active);
  tally_clear(v.tally_planes, v.planes);  // per-lane green tallies
  const std::size_t first_stop = green_stop < red_stop ? green_stop : red_stop;
  U64 g[kW], eq[kW], done[kW];
  for (std::size_t i = 0; i < v.universe; ++i) {
    if (!any_set(active)) return;
    tally_add(v.probe_planes, v.planes, active);
    const U64* col = v.greens + i * kW;
    for (std::size_t k = 0; k < kW; ++k) g[k] = col[k] & active[k];
    tally_add(v.tally_planes, v.planes, g);
    // No lane can reach either stop before `first_stop` probes; after that,
    // reds == red_stop iff greens == (i+1) - red_stop, so the red side
    // needs no planes of its own.
    if (i + 1 < first_stop) continue;
    zero_w(done);
    if (i + 1 >= green_stop) {
      tally_equals(v.tally_planes, v.planes, green_stop, eq);
      for (std::size_t k = 0; k < kW; ++k) done[k] |= eq[k];
    }
    if (i + 1 >= red_stop) {
      tally_equals(v.tally_planes, v.planes, i + 1 - red_stop, eq);
      for (std::size_t k = 0; k < kW; ++k) done[k] |= eq[k];
    }
    for (std::size_t k = 0; k < kW; ++k) active[k] &= ~done[k];
  }
}

// ---------------------------------------------------------------- tree_scan

/// Probe_Tree's recursion with an active-lane matrix: every entering lane
/// probes the node, all evaluate the right subtree, and only the lanes
/// whose right-witness color differs from their root color descend left.
/// Writes the subtree's witness-color word into `out` (valid on `active`).
void tree_rec(const BlockView& v, std::size_t node, const U64* active,
              U64* out) {
  if (!any_set(active)) {
    zero_w(out);
    return;
  }
  tally_add(v.probe_planes, v.planes, active);
  const U64* col = v.greens + node * kW;
  if (2 * node + 1 >= v.universe) {  // leaf
    copy_w(out, col);
    return;
  }
  U64 right[kW], mismatch[kW], left[kW];
  tree_rec(v, 2 * node + 2, active, right);
  for (std::size_t k = 0; k < kW; ++k)
    mismatch[k] = active[k] & (right[k] ^ col[k]);
  tree_rec(v, 2 * node + 1, mismatch, left);
  for (std::size_t k = 0; k < kW; ++k) {
    const U64 agree = ~(right[k] ^ col[k]);
    out[k] = (agree & col[k]) | (~agree & left[k]);
  }
}

void tree_scan(const BlockView& v) {
  U64 out[kW];
  tree_rec(v, 0, v.active, out);
}

// --------------------------------------------------------------- rtree_scan

/// R_Probe_Tree with per-lane drawn plans.  For each internal node the
/// incoming lanes split by plan: plan 0 probes the root and the right
/// subtree (left only on a root/witness mismatch), plan 1 mirrors it, plan
/// 2 evaluates both subtrees and probes the root only when they disagree.
/// Each child is entered by at most two recursive calls with disjoint
/// masks, so per-lane probe sets match the scalar recursion exactly.
void rtree_rec(const BlockView& v, std::size_t node, const U64* A,
               const U64* plans, U64* out) {
  if (!any_set(A)) {
    zero_w(out);
    return;
  }
  const U64* col = v.greens + node * kW;
  if (2 * node + 1 >= v.universe) {  // leaf
    tally_add(v.probe_planes, v.planes, A);
    copy_w(out, col);
    return;
  }
  const U64* P = plans + node * 3 * kW;
  U64 A0[kW], A1[kW], A2[kW], m[kW];
  for (std::size_t k = 0; k < kW; ++k) {
    A0[k] = A[k] & P[k];
    A1[k] = A[k] & P[kW + k];
    A2[k] = A[k] & P[2 * kW + k];
  }
  for (std::size_t k = 0; k < kW; ++k) m[k] = A0[k] | A1[k];
  tally_add(v.probe_planes, v.planes, m);  // root probe, plans 0 and 1

  U64 right1[kW], left1[kW];
  for (std::size_t k = 0; k < kW; ++k) m[k] = A0[k] | A2[k];
  rtree_rec(v, 2 * node + 2, m, plans, right1);
  for (std::size_t k = 0; k < kW; ++k) m[k] = A1[k] | A2[k];
  rtree_rec(v, 2 * node + 1, m, plans, left1);

  U64 mm0[kW], mm1[kW], d2[kW], left2[kW], right2[kW];
  for (std::size_t k = 0; k < kW; ++k) mm0[k] = A0[k] & (right1[k] ^ col[k]);
  rtree_rec(v, 2 * node + 1, mm0, plans, left2);
  for (std::size_t k = 0; k < kW; ++k) mm1[k] = A1[k] & (left1[k] ^ col[k]);
  rtree_rec(v, 2 * node + 2, mm1, plans, right2);
  for (std::size_t k = 0; k < kW; ++k) d2[k] = A2[k] & (left1[k] ^ right1[k]);
  tally_add(v.probe_planes, v.planes, d2);  // plan-2 root probe on disagreement

  // Witness colors: a plan-0/1 lane whose first subtree matched its root
  // keeps the root color, a mismatching lane takes the second subtree's
  // color (it either matches the root or joins the first witness); a
  // plan-2 lane takes the agreed child color, or the root's on a tie.
  for (std::size_t k = 0; k < kW; ++k)
    out[k] = ((A0[k] & ~mm0[k]) & col[k]) | (mm0[k] & left2[k]) |
             ((A1[k] & ~mm1[k]) & col[k]) | (mm1[k] & right2[k]) |
             ((A2[k] & ~d2[k]) & left1[k]) | (d2[k] & col[k]);
}

void rtree_scan(const BlockView& v, const U64* plan_masks) {
  U64 out[kW];
  rtree_rec(v, 0, v.active, plan_masks, out);
}

// ----------------------------------------------------------------- hqs_scan

/// Probes leaf `node` for `lanes`: tallies them, if any, and writes the
/// leaf's colors to `value`.  The HQS kernels call it from the parent gate
/// rather than recursing into a leaf, the hottest entry of their walks.
inline void probe_leaf(const BlockView& v, std::size_t node, const U64* lanes,
                       U64* value) {
  if (any_set(lanes)) tally_add(v.probe_planes, v.planes, lanes);
  copy_w(value, v.greens + node * kW);
}

/// Probe_HQS's 2-of-3 gate evaluation: all active lanes evaluate the first
/// two children; only the lanes whose children disagree visit the third.
void hqs_rec(const BlockView& v, std::size_t level, std::size_t index,
             const U64* active, U64* out) {
  if (!any_set(active)) {
    zero_w(out);
    return;
  }
  if (level == 0) {
    probe_leaf(v, index, active, out);
    return;
  }
  const auto enter = [&](std::size_t c, const U64* lanes, U64* value) {
    if (level > 1)
      hqs_rec(v, level - 1, index * 3 + c, lanes, value);
    else
      probe_leaf(v, index * 3 + c, lanes, value);
  };
  U64 first[kW], second[kW], third[kW], m[kW];
  enter(0, active, first);
  enter(1, active, second);
  for (std::size_t k = 0; k < kW; ++k)
    m[k] = active[k] & (first[k] ^ second[k]);
  enter(2, m, third);
  for (std::size_t k = 0; k < kW; ++k) {
    const U64 disagree = first[k] ^ second[k];
    out[k] = (~disagree & first[k]) | (disagree & third[k]);
  }
}

void hqs_scan(const BlockView& v, std::size_t height) {
  U64 out[kW];
  hqs_rec(v, height, 0, v.active, out);
}

// ---------------------------------------------------------------- rhqs_scan

/// Gate index in the level-major enumeration (level height..1, index
/// ascending): the levels above `level` contribute (3^(height-level)-1)/2
/// gates.
inline std::size_t rhqs_gate(std::size_t height, std::size_t level,
                             std::size_t index) {
  std::size_t pow3 = 1;
  for (std::size_t j = level; j < height; ++j) pow3 *= 3;
  return (pow3 - 1) / 2 + index;
}

/// R_Probe_HQS with per-lane drawn child orders.  Phase 1: every lane
/// evaluates the two children its order picked (each child subtree is
/// entered once with the union of the lanes that picked it first or
/// second).  Phase 2: lanes whose two picks disagree evaluate their third
/// child.  Disjoint masks per child, so probe sets match the scalar walk.
void rhqs_rec(const BlockView& v, std::size_t height, std::size_t level,
              std::size_t index, const U64* A, const U64* orders, U64* out) {
  if (!any_set(A)) {
    zero_w(out);
    return;
  }
  if (level == 0) {
    probe_leaf(v, index, A, out);
    return;
  }
  const U64* F = orders + rhqs_gate(height, level, index) * 6 * kW;
  const auto enter = [&](std::size_t c, const U64* lanes, U64* value) {
    if (level > 1)
      rhqs_rec(v, height, level - 1, index * 3 + c, lanes, orders, value);
    else
      probe_leaf(v, index * 3 + c, lanes, value);
  };
  U64 r[3][kW], m[kW];
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t k = 0; k < kW; ++k)
      m[k] = A[k] & (F[c * kW + k] | F[(3 + c) * kW + k]);
    enter(c, m, r[c]);
  }
  U64 first[kW], second[kW], dis[kW];
  for (std::size_t k = 0; k < kW; ++k) {
    first[k] = (F[k] & r[0][k]) | (F[kW + k] & r[1][k]) |
               (F[2 * kW + k] & r[2][k]);
    second[k] = (F[3 * kW + k] & r[0][k]) | (F[4 * kW + k] & r[1][k]) |
                (F[5 * kW + k] & r[2][k]);
    dis[k] = A[k] & (first[k] ^ second[k]);
  }
  U64 third[kW], rc[kW];
  zero_w(third);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t k = 0; k < kW; ++k)
      m[k] = dis[k] & ~F[c * kW + k] & ~F[(3 + c) * kW + k];
    enter(c, m, rc);
    for (std::size_t k = 0; k < kW; ++k) third[k] |= m[k] & rc[k];
  }
  for (std::size_t k = 0; k < kW; ++k)
    out[k] = (A[k] & ~dis[k] & first[k]) | third[k];
}

void rhqs_scan(const BlockView& v, std::size_t height, const U64* order_masks) {
  U64 out[kW];
  rhqs_rec(v, height, height, 0, v.active, order_masks, out);
}

// --------------------------------------------------------------- irhqs_scan

/// The lanes entering one node of irhqs_rec, one disjoint mask per way in
/// (core/algorithms/probe_hqs.cpp names the scalar steps):
///   ir  Fig. 8's ir_eval (eval_node at heights 0 and 1);
///   ev  eval_node: the first two children in the lane's order and, on
///       disagreement, the third, each by ir_eval;
///   pk  the grandchild peek of the parent's ir_eval: the first child only,
///       by ir_eval;
///   cp  complete_node after that peek: the second child and, when it
///       disagrees with the peeked value g, the third.
/// pk and cp lanes enter gates only, never leaves.
struct IrLanes {
  U64 ir[kW], ev[kW], pk[kW], cp[kW], g[kW];
};

/// IR_Probe_HQS with per-lane drawn child orders (rhqs_scan's layout).
/// Each ir lane runs Fig. 8 in three masked phases over the children:
/// (1) its first child by eval_node and the peek into its second child;
/// (2) lanes whose peek agrees with the first child complete the second
/// child (step 5), the others evaluate the third (step 6); (3) lanes still
/// tied evaluate the remaining child -- the third or the rest of the
/// second.  The ev, pk and cp lanes ride phases 1 and 2.  Writes the
/// node's value for ir, ev and cp lanes, the first child's for pk lanes.
/// Each lane enters a child at most once per phase, with disjoint child
/// subtrees per entry, so probe sets match the scalar walk.
void irhqs_rec(const BlockView& v, std::size_t height, std::size_t level,
               std::size_t index, const IrLanes& in, const U64* orders,
               U64* out) {
  U64 any[kW];
  for (std::size_t k = 0; k < kW; ++k)
    any[k] = in.ir[k] | in.ev[k] | in.pk[k] | in.cp[k];
  if (!any_set(any)) {
    zero_w(out);
    return;
  }
  if (level == 0) {
    probe_leaf(v, index, any, out);
    return;
  }
  const U64* F = orders + rhqs_gate(height, level, index) * 6 * kW;
  // Height-1 gates have no grandchildren: ir_eval is eval_node there.
  U64 ir[kW], ev[kW];
  for (std::size_t k = 0; k < kW; ++k) {
    ir[k] = level == 1 ? 0 : in.ir[k];
    ev[k] = level == 1 ? in.ev[k] | in.ir[k] : in.ev[k];
  }
  const auto picked = [F](std::size_t slot, const U64 (*r)[kW], U64* out_w) {
    for (std::size_t k = 0; k < kW; ++k)
      out_w[k] = (F[(slot + 0) * kW + k] & r[0][k]) |
                 (F[(slot + 1) * kW + k] & r[1][k]) |
                 (F[(slot + 2) * kW + k] & r[2][k]);
  };
  IrLanes child;
  // Enters child c with `child`'s lanes; only ir and ev lanes reach leaves.
  const auto enter = [&](std::size_t c, U64* value) {
    const std::size_t node = index * 3 + c;
    if (level > 1) {
      irhqs_rec(v, height, level - 1, node, child, orders, value);
      return;
    }
    U64 m[kW];
    for (std::size_t k = 0; k < kW; ++k) m[k] = child.ir[k] | child.ev[k];
    probe_leaf(v, node, m, value);
  };

  // Phase 1: ev lanes' first two children, pk lanes' first, cp lanes'
  // second (all by ir_eval); ir lanes' first child by eval_node and their
  // peek into the second.
  U64 a[3][kW];
  for (std::size_t c = 0; c < 3; ++c) {
    const U64* Fc = F + c * kW;
    const U64* Sc = F + (3 + c) * kW;
    for (std::size_t k = 0; k < kW; ++k) {
      child.ir[k] = (ev[k] & (Fc[k] | Sc[k])) | (in.pk[k] & Fc[k]) |
                    (in.cp[k] & Sc[k]);
      child.ev[k] = ir[k] & Fc[k];
      child.pk[k] = ir[k] & Sc[k];
      child.cp[k] = 0;
    }
    enter(c, a[c]);
  }
  U64 first[kW], second[kW], tie[kW], step5[kW], step6[kW];
  picked(0, a, first);
  picked(3, a, second);
  for (std::size_t k = 0; k < kW; ++k) {
    // ev and cp lanes whose two values disagree need their third child.
    tie[k] = (ev[k] & (first[k] ^ second[k])) |
             (in.cp[k] & (second[k] ^ in.g[k]));
    step5[k] = ir[k] & ~(first[k] ^ second[k]);
    step6[k] = ir[k] & (first[k] ^ second[k]);
  }

  // Phase 2: the tied ev / cp lanes' third child; step 5 completes the
  // second child, step 6 evaluates the third.
  U64 b[3][kW];
  copy_w(child.g, second);
  for (std::size_t c = 0; c < 3; ++c) {
    const U64* Fc = F + c * kW;
    const U64* Sc = F + (3 + c) * kW;
    for (std::size_t k = 0; k < kW; ++k) {
      const U64 Tc = ~(Fc[k] | Sc[k]);
      child.ir[k] = tie[k] & Tc;
      child.ev[k] = step6[k] & Tc;
      child.pk[k] = 0;
      child.cp[k] = step5[k] & Sc[k];
    }
    enter(c, b[c]);
  }
  U64 third[kW], done2[kW], late[kW];
  for (std::size_t k = 0; k < kW; ++k) {
    third[k] = ~(F[k] | F[3 * kW + k]) & b[0][k];
    third[k] |= ~(F[kW + k] | F[4 * kW + k]) & b[1][k];
    third[k] |= ~(F[2 * kW + k] | F[5 * kW + k]) & b[2][k];
  }
  picked(3, b, done2);
  for (std::size_t k = 0; k < kW; ++k)
    late[k] = (step5[k] & (done2[k] ^ first[k])) |
              (step6[k] & (third[k] ^ first[k]));

  // Phase 3: ir lanes still tied -- step 5 evaluates the third child,
  // step 6 completes the second.
  U64 last[kW];
  zero_w(last);
  if (any_set(late)) {
    U64 r[kW];
    for (std::size_t c = 0; c < 3; ++c) {
      const U64* Fc = F + c * kW;
      const U64* Sc = F + (3 + c) * kW;
      for (std::size_t k = 0; k < kW; ++k) {
        child.ir[k] = 0;
        child.ev[k] = late[k] & step5[k] & ~(Fc[k] | Sc[k]);
        child.cp[k] = late[k] & step6[k] & Sc[k];
      }
      enter(c, r);
      for (std::size_t k = 0; k < kW; ++k)
        last[k] |= (child.ev[k] | child.cp[k]) & r[k];
    }
  }
  for (std::size_t k = 0; k < kW; ++k)
    out[k] = (first[k] & (in.pk[k] | (ev[k] & ~tie[k]) | (ir[k] & ~late[k]))) |
             (in.cp[k] & ~tie[k] & second[k]) | (tie[k] & third[k]) | last[k];
}

void irhqs_scan(const BlockView& v, std::size_t height,
                const U64* order_masks) {
  IrLanes root;
  copy_w(root.ir, v.active);
  zero_w(root.ev);
  zero_w(root.pk);
  zero_w(root.cp);
  zero_w(root.g);
  U64 out[kW];
  irhqs_rec(v, height, height, 0, root, order_masks, out);
}

// ------------------------------------------------------------------ cw_scan

/// Probe_CW's top-down row scan with a per-lane mode word: lanes leave a
/// row at their first mode-matching element; lanes that match nothing saw
/// a monochromatic opposite row and flip their mode.
void cw_scan(const BlockView& v, const std::uint32_t* row_begin,
             std::size_t row_count) {
  U64 mode[kW], scanning[kW];
  tally_add(v.probe_planes, v.planes, v.active);  // the width-1 top row
  const U64* top = v.greens + static_cast<std::size_t>(row_begin[0]) * kW;
  for (std::size_t k = 0; k < kW; ++k) mode[k] = top[k] & v.active[k];
  for (std::size_t row = 1; row < row_count; ++row) {
    copy_w(scanning, v.active);
    for (std::uint32_t e = row_begin[row]; e < row_begin[row + 1]; ++e) {
      if (!any_set(scanning)) break;
      tally_add(v.probe_planes, v.planes, scanning);
      const U64* col = v.greens + static_cast<std::size_t>(e) * kW;
      for (std::size_t k = 0; k < kW; ++k) scanning[k] &= col[k] ^ mode[k];
    }
    for (std::size_t k = 0; k < kW; ++k) mode[k] ^= scanning[k];
  }
}

// ----------------------------------------------------------------- rcw_scan

/// R_Probe_CW's bottom-up scan on within-row shuffled element rows: a
/// lane probes a row's elements (in the shuffled = stored order) until it
/// has seen both colors; a monochromatic row retires the lane.
void rcw_scan(const BlockView& v, const std::uint32_t* row_begin,
              std::size_t row_count) {
  U64 alive[kW], green_seen[kW], red_seen[kW], scanning[kW];
  copy_w(alive, v.active);
  for (std::size_t row = row_count; row-- > 0;) {
    if (!any_set(alive)) return;
    zero_w(green_seen);
    zero_w(red_seen);
    for (std::uint32_t e = row_begin[row]; e < row_begin[row + 1]; ++e) {
      for (std::size_t k = 0; k < kW; ++k)
        scanning[k] = alive[k] & ~(green_seen[k] & red_seen[k]);
      if (!any_set(scanning)) break;
      tally_add(v.probe_planes, v.planes, scanning);
      const U64* col = v.greens + static_cast<std::size_t>(e) * kW;
      for (std::size_t k = 0; k < kW; ++k) {
        green_seen[k] |= scanning[k] & col[k];
        red_seen[k] |= scanning[k] & ~col[k];
      }
    }
    for (std::size_t k = 0; k < kW; ++k)
      alive[k] &= green_seen[k] & red_seen[k];
  }
}
