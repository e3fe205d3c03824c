// Witness supports of the recursive strategies (Probe_Tree, R_Probe_Tree,
// Probe_HQS, R_Probe_HQS, IR_Probe_HQS).
//
// Each recursion builds its witness bottom-up from the supports of disjoint
// subtrees, so every union is a disjoint union and the final ElementSet is
// materialized once per run.  The recursions are written once, as templates
// over the support type, which with_support() picks from the universe size:
// a word mask for n <= 64 (a union is one OR, nothing is allocated) and an
// element vector above (a union is a concatenation).
#pragma once

#include <cstdint>
#include <vector>

#include "util/element_set.h"

namespace qps::witness_support {

inline void add(std::uint64_t& support, Element e) { support |= 1ULL << e; }
inline void add(std::vector<Element>& support, Element e) {
  support.push_back(e);
}

/// Adds the disjoint support `from` to `into`.
inline void unite(std::uint64_t& into, std::uint64_t from) { into |= from; }
inline void unite(std::vector<Element>& into,
                  const std::vector<Element>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

template <typename Support>
Support singleton(Element e) {
  Support support{};
  add(support, e);
  return support;
}

inline ElementSet to_set(std::uint64_t support, std::size_t n) {
  return ElementSet::from_mask(n, support);
}
inline ElementSet to_set(const std::vector<Element>& support, std::size_t n) {
  ElementSet set(n);
  for (Element e : support) set.insert(e);
  return set;
}

/// Calls `run(Support{})` with the support type for an n-element universe.
template <typename Run>
auto with_support(std::size_t n, Run&& run) {
  if (n <= 64) return run(std::uint64_t{0});
  return run(std::vector<Element>{});
}

}  // namespace qps::witness_support
