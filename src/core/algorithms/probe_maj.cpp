#include "core/algorithms/probe_maj.h"

#include "core/engine/batch_kernel.h"
#include "core/engine/trial_workspace.h"
#include "util/require.h"

namespace qps {

namespace {

/// Probes elements in the order `order(0), order(1), ...` until one color
/// reaches the majority threshold; the monochromatic majority is the
/// witness (a quorum if green, a transversal -- in fact a quorum, since Maj
/// is ND -- if red).  For n <= 64 the green/red tallies are single-word
/// sets, so the whole loop is allocation-free.
template <typename OrderFn>
Witness probe_in_order(const MajoritySystem& system, OrderFn&& order,
                       ProbeSession& session) {
  const std::size_t threshold = system.threshold();
  ElementSet greens(system.universe_size());
  ElementSet reds(system.universe_size());
  for (std::size_t i = 0; i < system.universe_size(); ++i) {
    const Element e = order(i);
    if (session.probe(e) == Color::kGreen) {
      greens.insert(e);
      if (greens.count() >= threshold) return {Color::kGreen, greens};
    } else {
      reds.insert(e);
      if (reds.count() >= threshold) return {Color::kRed, reds};
    }
  }
  QPS_CHECK(false, "one color must reach the majority threshold");
  return {};
}

}  // namespace

Witness ProbeMaj::run_with(TrialWorkspace& /*workspace*/,
                           ProbeSession& session, Rng& /*rng*/) const {
  return probe_in_order(
      *system_, [](std::size_t i) { return static_cast<Element>(i); },
      session);
}

bool ProbeMaj::supports_batch(std::size_t universe_size) const {
  return universe_size == system_->universe_size();
}

void ProbeMaj::run_batch(BatchTrialBlock& block, Rng& /*rng*/) const {
  QPS_REQUIRE(block.universe_size() == system_->universe_size(),
              "batch block over the wrong universe");
  // Lock-step sequential scan: element i is probed by every lane that has
  // not yet seen a monochromatic majority; both stop conditions are the
  // same threshold.
  const std::size_t threshold = system_->threshold();
  block.kernels().count_scan(block.view(), threshold, threshold);
}

Witness RProbeMaj::run_with(TrialWorkspace& workspace, ProbeSession& session,
                            Rng& rng) const {
  auto& perm = workspace.order_buffer();
  rng.permutation_into(perm,
                       static_cast<std::uint32_t>(system_->universe_size()));
  return probe_in_order(
      *system_, [&perm](std::size_t i) { return perm[i]; }, session);
}

bool RProbeMaj::supports_batch(std::size_t universe_size) const {
  return universe_size == system_->universe_size();
}

void RProbeMaj::run_batch(BatchTrialBlock& block, Rng& rng) const {
  const std::size_t n = system_->universe_size();
  QPS_REQUIRE(block.universe_size() == n,
              "batch block over the wrong universe");
  // Probing random elements in canonical order is probing canonical
  // elements of the shuffled coloring: each group's lane-major shuffle
  // moves the element rows in place.
  std::uint64_t* choices = block.lane_choices();
  for (std::size_t k = 0; k < block.group_count(); ++k) {
    draw_lane_choices(rng, choices);
    block.shuffle_rows(k, choices, 0, n);
  }
  const std::size_t threshold = system_->threshold();
  block.kernels().count_scan(block.view(), threshold, threshold);
}

std::size_t RProbeMaj::lane_choice_words() const {
  return lane_shuffle_words(system_->universe_size());
}

void RProbeMaj::draw_lane_choices(Rng& rng, std::uint64_t* choices) const {
  draw_lane_shuffle(rng, system_->universe_size(), choices);
}

Witness RProbeMaj::run_lane(TrialWorkspace& workspace, ProbeSession& session,
                            const std::uint64_t* choices,
                            std::size_t lane) const {
  const std::size_t n = system_->universe_size();
  auto& perm = workspace.order_buffer();
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  shuffle_from_lane(choices, lane, perm.data(), n);
  return probe_in_order(
      *system_, [&perm](std::size_t i) { return perm[i]; }, session);
}

}  // namespace qps
