#include "core/algorithms/greedy.h"

#include <bit>

#include "core/engine/trial_workspace.h"
#include "util/require.h"

namespace qps {

GreedyCandidateProbe::GreedyCandidateProbe(const QuorumSystem& system)
    : system_(&system), quorums_(system.enumerate_quorums()) {
  QPS_REQUIRE(!quorums_.empty(), "system has no quorums");
  const std::size_t n = system.universe_size();
  mask_words_ = (quorums_.size() + 63) / 64;
  member_.assign(n * mask_words_, 0);
  for (std::size_t qi = 0; qi < quorums_.size(); ++qi)
    for (Element e : quorums_[qi].to_vector())
      member_[e * mask_words_ + qi / 64] |= 1ULL << (qi % 64);
}

Witness GreedyCandidateProbe::run_with(TrialWorkspace& workspace,
                                       ProbeSession& session,
                                       Rng& /*rng*/) const {
  // The candidate masks live in the workspace: no per-call scratch, and no
  // hidden per-thread state whose growth outlives the call.
  std::vector<std::uint64_t>& live = workspace.word_buffer(0);
  std::vector<std::uint64_t>& dead = workspace.word_buffer(1);
  std::vector<std::uint64_t>& unhit = workspace.word_buffer(2);
  const std::size_t n = system_->universe_size();
  const std::size_t words = mask_words_;
  // A quorum is a live candidate while none of its elements probed red; a
  // dead candidate (candidate red quorum) while none probed green; unhit
  // while disjoint from the probed reds.  All-ones start, zero tail bits.
  const auto fill_all = [&](std::vector<std::uint64_t>& mask) {
    mask.assign(words, ~0ULL);
    const std::size_t tail = quorums_.size() % 64;
    if (tail != 0) mask.back() = (1ULL << tail) - 1;
  };
  fill_all(live);
  fill_all(dead);
  fill_all(unhit);

  // Honor probes already on the session (its contract allows re-entering a
  // partially probed session): fold them into the candidate masks exactly
  // as if this run had made them.  Empty sets on the trial hot path.
  const auto fold_probed = [&](const ElementSet& probed, Color c) {
    for (Element e = probed.first(); e < n; e = probed.next_after(e)) {
      const std::uint64_t* member = &member_[e * words];
      for (std::size_t w = 0; w < words; ++w) {
        if (c == Color::kGreen) {
          dead[w] &= ~member[w];
        } else {
          live[w] &= ~member[w];
          unhit[w] &= ~member[w];
        }
      }
    }
  };
  fold_probed(session.probed_greens(), Color::kGreen);
  fold_probed(session.probed_reds(), Color::kRed);

  while (true) {
    // Green certificate: some live quorum fully probed green.
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = live[w];
      while (bits != 0) {
        const std::size_t qi = w * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        if (quorums_[qi].is_subset_of(session.probed_greens()))
          return {Color::kGreen, quorums_[qi]};
      }
    }
    // Red certificate: the probed reds hit every quorum (a transversal).
    bool transversal = true;
    for (std::size_t w = 0; w < words && transversal; ++w)
      transversal = unhit[w] == 0;
    if (transversal) return {Color::kRed, session.probed_reds()};

    // Probe the unprobed element covering the most still-possible
    // candidates (live + dead counts), a density heuristic.
    Element best = static_cast<Element>(n);
    std::size_t best_score = 0;
    for (Element e = 0; e < n; ++e) {
      if (session.was_probed(e)) continue;
      std::size_t score = 1;  // ensure any unprobed element is eligible
      const std::uint64_t* member = &member_[e * words];
      for (std::size_t w = 0; w < words; ++w)
        score += static_cast<std::size_t>(
            std::popcount((live[w] | dead[w]) & member[w]));
      if (score > best_score) {
        best_score = score;
        best = e;
      }
    }
    QPS_CHECK(best < n, "no certificate yet but all elements probed");

    const Color c = session.probe(best);
    const std::uint64_t* member = &member_[best * words];
    for (std::size_t w = 0; w < words; ++w) {
      if (c == Color::kGreen) {
        dead[w] &= ~member[w];
      } else {
        live[w] &= ~member[w];
        unhit[w] &= ~member[w];
      }
    }
  }
}

}  // namespace qps
