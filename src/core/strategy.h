// ProbeStrategy: the interface every probing algorithm implements.
//
// A strategy adaptively probes elements through a ProbeSession until it can
// return a witness.  Deterministic strategies (Section 3) ignore the Rng;
// randomized strategies (Section 4) draw all their randomness from it, so a
// run is reproducible from the coloring and the generator seed.
//
// One per-trial entry point, run_with(), which every strategy implements
// once.  It receives a TrialWorkspace (core/engine/trial_workspace.h) so a
// strategy can reuse per-worker buffers instead of allocating per trial.
// run() is a non-virtual convenience for one-off runs: it forwards to
// run_with() on a per-thread workspace (rebuilt when the universe size
// changes), so both make the same probes and the same Rng draws.  A
// run_with() must therefore never call run() itself.
//
// Batch-capable randomized strategies add the engine's lane-major entry
// points (result stream v5, core/engine/batch_kernel.h): draw_lane_choices()
// draws the choices of 64 trials at once as bit planes, run_batch() runs a
// super-block on them bit-sliced, and run_lane() runs one trial from one
// lane of them on the scalar path.  estimate_ppc uses these, never
// run_with(), for such strategies, so its two execution paths see the same
// choices per trial.
#pragma once

#include <cstdint>
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
  /// the cost of the run.  May reuse the workspace's buffers instead of
  /// allocating; `session` need not be the workspace's own.
  virtual Witness run_with(TrialWorkspace& workspace, ProbeSession& session,
                           Rng& rng) const = 0;

  /// run_with() on this thread's workspace for the session's universe.
  Witness run(ProbeSession& session, Rng& rng) const;

  /// True when the strategy can execute a bit-sliced batch block
  /// (core/engine/batch_kernel.h) over a universe of `universe_size`
  /// elements.  Deterministic-order strategies map straight onto a scan
  /// kernel; randomized-order strategies qualify too by drawing their
  /// choices lane-major (draw_lane_choices) before the lock-step pass.
  /// Any universe size -- every element is one lane-word row.  Default: no
  /// batch kernel.
  virtual bool supports_batch(std::size_t universe_size) const {
    (void)universe_size;
    return false;
  }

  /// Runs one loaded super-block of trials in lock-step through the block's
  /// kernel table (block.kernels()).  Randomized strategies first draw their
  /// choices from `rng` for the block's 64-lane groups 0 ..
  /// block.group_count()-1 in order, each group exactly as
  /// draw_lane_choices() draws it (lanes beyond trial_count() included).
  /// For every lane, the recovered probe count must be bit-identical to
  /// what run_lane() -- run_with() for strategies that draw nothing --
  /// reports on that lane's coloring and choices
  /// (tests/core/test_batch_kernel.cpp, tests/core/test_simd.cpp).  Only
  /// called when supports_batch(block.universe_size()) is true.
  virtual void run_batch(BatchTrialBlock& block, Rng& rng) const {
    (void)block;
    (void)rng;
    QPS_CHECK(false, name() + " has no bit-sliced batch kernel");
  }

  /// Words one 64-lane group's choices occupy (draw_lane_choices); 0, the
  /// default, for strategies whose batch path draws nothing.
  virtual std::size_t lane_choice_words() const { return 0; }

  /// Draws the choices of one 64-lane group from `rng` into `choices`
  /// (lane_choice_words() words, one bit per lane): the draws run_batch()
  /// makes per group.
  virtual void draw_lane_choices(Rng& rng, std::uint64_t* choices) const {
    (void)rng;
    (void)choices;
    QPS_CHECK(false, name() + " draws no lane choices");
  }

  /// Runs one trial on `session` with lane `lane` (< 64) of a group's
  /// choices drawn by draw_lane_choices(): the scalar twin of run_batch()'s
  /// per-lane work, on the strategy's plan-driven recursion.
  virtual Witness run_lane(TrialWorkspace& workspace, ProbeSession& session,
                           const std::uint64_t* choices,
                           std::size_t lane) const {
    (void)workspace;
    (void)session;
    (void)choices;
    (void)lane;
    QPS_CHECK(false, name() + " draws no lane choices");
    return {};
  }
};

using ProbeStrategyPtr = std::unique_ptr<const ProbeStrategy>;

}  // namespace qps
