// Monte-Carlo pieces shared across workloads: the strategy factory, and
// the ledger cut every traced run records.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/strategy.h"
#include "quorum/quorum_system.h"
#include "report.h"

namespace perfbench {

/// The paper's Probe_* strategy named by (family, tag): "det" is the
/// deterministic scan, "R" the randomized order, "IR" HQS's scalar
/// improved-randomized strategy.
qps::ProbeStrategyPtr make_strategy(const std::string& family,
                                    const std::string& tag,
                                    const qps::QuorumSystem& system);

/// The ledger cut every traced run records: Maj63 / Tree63 deterministic
/// scans at p in {0.1, 0.3, 0.5}, replayed stage by stage into
/// `values["ledger.*"]`.  Returns whether every replay reproduced a
/// threads=1 estimate_ppc bit for bit (engine.decomp_match).
bool ledger_cut(std::uint64_t seed, SpanLog& log,
                std::map<std::string, double>& values);

}  // namespace perfbench
