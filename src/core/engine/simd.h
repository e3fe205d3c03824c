// Lane-width layer of the bit-sliced batch engine.
//
// The batch kernel (batch_kernel.h) packs 64 Monte-Carlo trials into every
// machine word; this layer widens that to W words processed in lock-step,
// so one pass of a scan kernel advances 64*W trials.  The hot loops (the
// ripple-carry tally add, the stop-detection equality fold, the masked
// recursions of Probe_Tree/HQS/CW) are written once, width-generic, in
// simd_kernels.inc.h and instantiated at two widths in plain C++ under the
// build's baseline flags (the fixed-trip W loops unroll, and compilers
// vectorize them where the target allows):
//
//   table     W   trials per block  role
//   portable  4   256               the production table (kAuto)
//   off       1   64                single-word reference: tests and the
//                                   bench_micro Batch baseline
//
// Lane width never changes a trial: every table charges each lane exactly
// the probes the scalar strategy makes on that lane's coloring, so only
// the number of lane words per pass differs.  The contract between the
// engine and the kernels is the POD BlockView below plus plain arrays for
// structure (tree shape is implied by the heap indexing, HQS by its
// height, CW by a row-offset array).
#pragma once

#include <cstddef>
#include <cstdint>

namespace qps {

enum class SimdIsa : std::uint8_t {
  kAuto = 0,      // the production table: kPortable
  kOff = 1,       // single 64-bit word per step (the reference layout)
  kPortable = 2,  // plain C++ over uint64[4]
};

/// The kernels' window into one loaded BatchTrialBlock.  All arrays are
/// lane-word matrices with W = SimdKernels::width words per row:
///   greens[e*W + k]        element e's colors for lanes [64k, 64k+64)
///   probe_planes[b*W + k]  bit b of the per-lane probe counters
///   tally_planes           kernel-owned scratch counters, same layout
///   active[k]              bit t set iff lane 64k+t carries a trial
/// `planes` is the number of bit planes in each counter (enough for counts
/// up to `universe`).
struct BlockView {
  std::uint64_t* greens;
  std::uint64_t* probe_planes;
  std::uint64_t* tally_planes;
  const std::uint64_t* active;
  std::size_t universe;
  std::size_t planes;
};

/// One lane width's kernel table.  Every entry charges probes into
/// `probe_planes` for exactly the element set the scalar strategy would
/// probe on each lane's coloring -- the bit-identity contract.
struct SimdKernels {
  SimdIsa isa;
  std::size_t width;  // W: lane words per element / plane

  /// Sequential scan in element order 0..n-1; a lane stops once its green
  /// tally reaches `green_stop` or its red tally reaches `red_stop`.
  /// Covers Probe_Maj and -- on element rows shuffled in place by each
  /// lane's drawn order (BatchTrialBlock::shuffle_rows) -- R_Probe_Maj and
  /// Random_Order over counting systems.
  void (*count_scan)(const BlockView&, std::size_t green_stop,
                     std::size_t red_stop);

  /// Probe_Tree's masked recursion over the implicit heap tree
  /// (children of v are 2v+1 / 2v+2; v is a leaf iff 2v+1 >= n).
  void (*tree_scan)(const BlockView&);

  /// R_Probe_Tree: per-lane drawn plans as bit masks,
  /// plan_masks[(v*3 + plan)*W + k] for internal nodes v in [0, n/2).
  void (*rtree_scan)(const BlockView&, const std::uint64_t* plan_masks);

  /// Probe_HQS's masked 2-of-3 gate evaluation; n = 3^height.
  void (*hqs_scan)(const BlockView&, std::size_t height);

  /// R_Probe_HQS: per-lane drawn child orders as bit masks, 6 words per
  /// gate (first-child masks F0..F2 then second-child masks S0..S2) at
  /// order_masks[(g*6 + slot)*W + k]; gates g enumerate level height..1,
  /// index ascending.
  void (*rhqs_scan)(const BlockView&, std::size_t height,
                    const std::uint64_t* order_masks);

  /// IR_Probe_HQS (Fig. 8) on the same per-lane child orders as
  /// rhqs_scan: a masked walk whose node entries carry the lanes that
  /// evaluate the node by ir_eval or eval_node, peek at its first child,
  /// or complete it after a peek.
  void (*irhqs_scan)(const BlockView&, std::size_t height,
                     const std::uint64_t* order_masks);

  /// Probe_CW's top-down mode scan; rows are [row_begin[r], row_begin[r+1])
  /// and row_begin has row_count+1 entries.
  void (*cw_scan)(const BlockView&, const std::uint32_t* row_begin,
                  std::size_t row_count);

  /// R_Probe_CW's bottom-up both-colors scan, on element rows shuffled
  /// within each wall row by the lanes' drawn orders; same row_begin
  /// convention.
  void (*rcw_scan)(const BlockView&, const std::uint32_t* row_begin,
                   std::size_t row_count);
};

const char* simd_isa_name(SimdIsa isa);

/// Resolves a requested table (kAuto is kPortable) to its kernels.
const SimdKernels& resolve_simd_kernels(SimdIsa requested);

}  // namespace qps
