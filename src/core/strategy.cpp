#include "core/strategy.h"

#include "core/engine/trial_workspace.h"

namespace qps {

Witness ProbeStrategy::run(ProbeSession& session, Rng& rng) const {
  TrialWorkspace workspace(session.universe_size());
  return run_with(workspace, session, rng);
}

}  // namespace qps
