// ProbeStrategy: the interface every probing algorithm implements.
//
// A strategy adaptively probes elements through a ProbeSession until it can
// return a witness.  Deterministic strategies (Section 3) ignore the Rng;
// randomized strategies (Section 4) draw all their randomness from it, so a
// run is reproducible from the coloring and the generator seed.
//
// Two entry points:
//  * run() is the original self-contained API; implementations may allocate
//    whatever scratch they need per call.
//  * run_with() additionally receives a TrialWorkspace
//    (core/engine/trial_workspace.h) so a strategy can reuse per-worker
//    buffers instead of allocating per trial -- the Monte-Carlo hot path.
//    The default adapter ignores the workspace and forwards to run(), so
//    legacy strategies keep working unchanged.  Overrides must draw from
//    the Rng exactly as run() does: for any fixed generator state the two
//    entry points return identical witnesses at identical probe cost
//    (enforced by tests/core/test_hot_path_identity.cpp).
#pragma once

#include <memory>
#include <string>

#include "core/probe_session.h"
#include "core/witness.h"
#include "util/require.h"
#include "util/rng.h"

namespace qps {

class BatchTrialBlock;
class TrialWorkspace;

class ProbeStrategy {
 public:
  virtual ~ProbeStrategy() = default;

  virtual std::string name() const = 0;

  /// Probes until a witness is found; `session.probe_count()` afterwards is
  /// the cost of the run.
  virtual Witness run(ProbeSession& session, Rng& rng) const = 0;

  /// Scratch-aware entry point: like run(), but may reuse the workspace's
  /// buffers instead of allocating.  Must be observationally identical to
  /// run() (same probes, same witness, same Rng draws).
  virtual Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                           Rng& rng) const {
    (void)workspace;
    return run(session, rng);
  }

  /// True when the strategy can execute a bit-sliced batch block
  /// (core/engine/batch_kernel.h) over a universe of `universe_size`
  /// elements.  Deterministic-order strategies map straight onto a scan
  /// kernel; randomized-order strategies qualify too by pre-drawing their
  /// per-trial randomness (permuted colorings, plan masks) before the
  /// lock-step pass.  Any universe size -- lanes carry ceil(n/64) words.
  /// Default: no batch kernel.
  virtual bool supports_batch(std::size_t universe_size) const {
    (void)universe_size;
    return false;
  }

  /// Runs one loaded super-block of trials in lock-step through the block's
  /// kernel table (block.kernels()).  Randomized strategies draw their
  /// per-trial randomness from `rng` for lanes 0 .. trial_count()-1 IN
  /// TRIAL ORDER, with exactly the draws run_with() makes per trial, so the
  /// batch path consumes the same stream as the scalar loop.  For every
  /// lane, the recovered probe count must be bit-identical to what
  /// run_with() reports on that lane's coloring
  /// (tests/core/test_batch_kernel.cpp, tests/core/test_simd.cpp).  Only
  /// called when supports_batch(block.universe_size()) is true.
  virtual void run_batch(BatchTrialBlock& block, Rng& rng) const {
    (void)block;
    (void)rng;
    QPS_CHECK(false, name() + " has no bit-sliced batch kernel");
  }
};

using ProbeStrategyPtr = std::unique_ptr<const ProbeStrategy>;

}  // namespace qps
