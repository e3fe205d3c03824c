// Declarative sweep grids.
//
// Every result in the paper is a sweep: E(p) curves and probe-complexity
// tables over (system family, size, strategy, p) grids.  A SweepSpec names
// the grid once; expand() turns it into the flat, ordered list of
// SweepPoints the runner executes.  Three properties make the expansion the
// contract of the whole subsystem:
//
//  * Stable ids.  A point's id is a pure function of its coordinates
//    ("family=tree/size=4/strategy=R/p=0.5"), never of its position, so
//    checkpoint journals and worker protocol lines stay valid when blocks
//    are appended to a spec.
//  * Derived seeds with common-random-numbers semantics.  Each point's
//    engine seed mixes the spec's base seed with the point's (family, size,
//    strategy) coordinates -- but NOT p.  Points along the p axis therefore
//    share their RNG streams (the same element-failure uniforms are reused
//    at every p, so E(p) curves are smooth and comparisons along the curve
//    are variance-reduced), while distinct systems and strategies get
//    decorrelated streams.
//  * Deterministic order.  Expansion order is blocks, then sizes, then
//    strategies, then ps; aggregated sweep output is emitted in this order
//    regardless of which worker computed which point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qps::sweep {

/// One cell of an expanded sweep grid.
struct SweepPoint {
  std::size_t index = 0;     ///< Position in expansion order.
  std::string family;        ///< Quorum family tag, e.g. "tree".
  std::size_t size = 0;      ///< Family size parameter (n or height).
  std::string strategy;      ///< Strategy tag, e.g. "R"; may be empty.
  bool has_p = false;        ///< Whether the sweep has a p axis.
  double p = 0.0;            ///< Failure probability when has_p.
  std::string id;            ///< Stable coordinate-derived identifier.
  std::uint64_t seed = 0;    ///< Derived engine seed (see header comment).
};

class SweepSpec {
 public:
  /// `name` identifies the sweep in checkpoint journals and worker
  /// dispatch; a bench running several sweeps must give each a distinct
  /// name.
  SweepSpec(std::string name, std::uint64_t base_seed);

  /// Adds one (family x sizes x strategies) block to the grid.  Pass an
  /// empty strategy list for sweeps with no strategy axis (e.g. exact
  /// evaluations); the block then expands with strategy = "".
  SweepSpec& add_block(std::string family, std::vector<std::size_t> sizes,
                       std::vector<std::string> strategies = {});

  /// Sets the shared p axis.  Without one the grid has a single
  /// (has_p = false) slot per (family, size, strategy).
  SweepSpec& set_ps(std::vector<double> ps);

  /// Free-form execution-context tag (trial budget, SEM target, ...) mixed
  /// into fingerprint(); checkpoints taken under a different context are
  /// rejected on resume.
  SweepSpec& set_config_tag(std::string tag);

  const std::string& name() const { return name_; }

  /// Cartesian expansion in deterministic order; ids, seeds and indices
  /// filled in.
  std::vector<SweepPoint> expand() const;

  /// Number of points expand() will produce.
  std::size_t point_count() const;

  /// Hash of the sweep identity: name, base seed, config tag, the engine's
  /// kResultStreamVersion and every point id.  Two processes agree on point
  /// indices -- and on the results behind them -- iff their fingerprints
  /// agree; the checkpoint layer and the worker protocol both verify it, so
  /// a journal or worker from another stream version is never mixed in.
  std::uint64_t fingerprint() const;

  /// The stable id for a point with the given coordinates.
  static std::string point_id(const std::string& family, std::size_t size,
                              const std::string& strategy, bool has_p,
                              double p);

  /// The derived engine seed: base_seed mixed with (family, size,
  /// strategy).  p is deliberately excluded -- see the header comment on
  /// common random numbers.
  static std::uint64_t derive_seed(std::uint64_t base_seed,
                                   const std::string& family,
                                   std::size_t size,
                                   const std::string& strategy);

 private:
  /// One (family x sizes x strategies) block as passed to add_block()
  /// (strategies normalized to {""} when the block has no strategy axis).
  struct Block {
    std::string family;
    std::vector<std::size_t> sizes;
    std::vector<std::string> strategies;
  };

  std::string name_;
  std::uint64_t base_seed_;
  std::string config_tag_;
  std::vector<Block> blocks_;
  std::vector<double> ps_;
};

}  // namespace qps::sweep
