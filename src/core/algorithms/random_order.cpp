#include "core/algorithms/random_order.h"

#include "core/engine/batch_kernel.h"
#include "core/engine/trial_workspace.h"
#include "util/require.h"

namespace qps {

namespace {

Witness probe_in_random_order(const QuorumSystem& system,
                              const std::vector<std::uint32_t>& order,
                              ProbeSession& session) {
  const std::size_t n = system.universe_size();
  // not_red = greens + unprobed: the reds are a transversal exactly when
  // this set no longer contains a quorum.
  ElementSet not_red = ElementSet::full(n);
  for (Element e : order) {
    if (session.probe(e) == Color::kGreen) {
      if (system.contains_quorum(session.probed_greens()))
        return {Color::kGreen, session.probed_greens()};
    } else {
      not_red.erase(e);
      if (!system.contains_quorum(not_red))
        return {Color::kRed, session.probed_reds()};
    }
  }
  QPS_CHECK(false, "probing everything always certifies the state");
  return {};
}

}  // namespace

Witness RandomOrderProbe::run_with(TrialWorkspace& workspace,
                                   ProbeSession& session, Rng& rng) const {
  const std::size_t n = system_->universe_size();
  QPS_REQUIRE(session.universe_size() == n, "session over the wrong universe");
  auto& order = workspace.order_buffer();
  rng.permutation_into(order, static_cast<std::uint32_t>(n));
  return probe_in_random_order(*system_, order, session);
}

bool RandomOrderProbe::supports_batch(std::size_t universe_size) const {
  return universe_size == system_->universe_size() &&
         system_->quorum_count_certificate() != 0;
}

void RandomOrderProbe::run_batch(BatchTrialBlock& block, Rng& rng) const {
  const std::size_t n = system_->universe_size();
  QPS_REQUIRE(block.universe_size() == n,
              "batch block over the wrong universe");
  const std::size_t cert = system_->quorum_count_certificate();
  QPS_REQUIRE(cert != 0, "batch Random_Order needs a counting certificate");
  // Shuffle each group's element rows by its lanes' random orders (same
  // trick as R_Probe_Maj), then count: with contains_quorum(S) <=>
  // |S| >= cert, a lane certifies green at `cert` probed greens and red
  // once not_red = n - probed_reds drops below cert, i.e. at n - cert + 1
  // probed reds.
  std::uint64_t* choices = block.lane_choices();
  for (std::size_t k = 0; k < block.group_count(); ++k) {
    draw_lane_choices(rng, choices);
    block.shuffle_rows(k, choices, 0, n);
  }
  block.kernels().count_scan(block.view(), cert, n - cert + 1);
}

std::size_t RandomOrderProbe::lane_choice_words() const {
  return lane_shuffle_words(system_->universe_size());
}

void RandomOrderProbe::draw_lane_choices(Rng& rng,
                                         std::uint64_t* choices) const {
  draw_lane_shuffle(rng, system_->universe_size(), choices);
}

Witness RandomOrderProbe::run_lane(TrialWorkspace& workspace,
                                   ProbeSession& session,
                                   const std::uint64_t* choices,
                                   std::size_t lane) const {
  const std::size_t n = system_->universe_size();
  QPS_REQUIRE(session.universe_size() == n, "session over the wrong universe");
  auto& order = workspace.order_buffer();
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  shuffle_from_lane(choices, lane, order.data(), n);
  return probe_in_random_order(*system_, order, session);
}

}  // namespace qps
