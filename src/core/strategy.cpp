#include "core/strategy.h"

#include <memory>

#include "core/engine/trial_workspace.h"

namespace qps {

Witness ProbeStrategy::run(ProbeSession& session, Rng& rng) const {
  // run_with reads only the workspace's order and word buffers, which it
  // refills on every call, so one workspace per thread serves every call of
  // the same universe size.  Building a fresh one per call would allocate
  // and zero a coloring and three probe sets above n = 64 that nothing
  // reads.
  thread_local std::unique_ptr<TrialWorkspace> workspace;
  if (!workspace || workspace->universe_size() != session.universe_size())
    workspace = std::make_unique<TrialWorkspace>(session.universe_size());
  return run_with(*workspace, session, rng);
}

}  // namespace qps
