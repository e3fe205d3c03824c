#include "core/exact/dp_kernel.h"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "core/engine/parallel_for.h"
#include "core/fault/fault.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "util/require.h"

namespace qps::exact {

namespace {

constexpr std::size_t kMaxUniverse = 22;  // characteristic-table ceiling

// Shared by every DpKernel<Policy> instantiation: one set of exact-solver
// metrics, registered on first solve.
struct DpMetrics {
  obs::Counter& solves =
      obs::MetricsRegistry::instance().counter("exact/solves");
  obs::Counter& levels =
      obs::MetricsRegistry::instance().counter("exact/levels");
  obs::Histogram& level_us =
      obs::MetricsRegistry::instance().histogram("exact/level_us");
  obs::Gauge& frontier_bytes =
      obs::MetricsRegistry::instance().gauge("exact/frontier_bytes");

  static DpMetrics& get() {
    static DpMetrics metrics;
    return metrics;
  }
};

/// States per parallel chunk.  Chunk boundaries are a pure function of the
/// level size, never of the thread count, and every chunk writes disjoint
/// output slots -- the two facts that make kernel results bit-identical
/// across pool sizes.
constexpr std::size_t kStateGrain = 4096;

/// Pascal's triangle up to the positions colex (un)ranking can touch.
const std::array<std::array<std::uint64_t, kMaxUniverse + 3>,
                 kMaxUniverse + 3>&
binomial_table() {
  static const auto table = [] {
    std::array<std::array<std::uint64_t, kMaxUniverse + 3>, kMaxUniverse + 3>
        t{};
    for (std::size_t n = 0; n < t.size(); ++n) {
      t[n][0] = 1;
      for (std::size_t k = 1; k <= n; ++k)
        t[n][k] = t[n - 1][k - 1] + (k <= n - 1 ? t[n - 1][k] : 0);
    }
    return t;
  }();
  return table;
}

std::uint64_t binom(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  return binomial_table()[n][k];
}

/// Expands compressed green index `idx` back into a submask of `mask`.
std::uint64_t expand_submask(std::size_t idx, std::uint64_t mask) {
  std::uint64_t out = 0;
  std::size_t j = 0;
  while (mask != 0) {
    const std::uint64_t low = mask & (~mask + 1);
    if ((idx >> j) & 1) out |= low;
    ++j;
    mask ^= low;
  }
  return out;
}

}  // namespace

namespace detail {

std::size_t colex_rank(std::uint64_t mask) {
  std::size_t rank = 0;
  std::size_t i = 0;
  while (mask != 0) {
    const auto p = static_cast<std::size_t>(std::countr_zero(mask));
    mask &= mask - 1;
    ++i;
    rank += static_cast<std::size_t>(binom(p, i));
  }
  return rank;
}

std::uint64_t colex_unrank(std::size_t rank, std::size_t k) {
  std::uint64_t mask = 0;
  for (std::size_t i = k; i >= 1; --i) {
    std::size_t p = kMaxUniverse + 1;
    while (binom(p, i) > rank) --p;
    mask |= 1ULL << p;
    rank -= static_cast<std::size_t>(binom(p, i));
  }
  return mask;
}

std::uint32_t compress_submask(std::uint64_t sub, std::uint64_t mask) {
  std::uint32_t idx = 0;
  std::uint32_t j = 0;
  while (mask != 0) {
    const std::uint64_t low = mask & (~mask + 1);
    if (sub & low) idx |= 1u << j;
    ++j;
    mask ^= low;
  }
  return idx;
}

std::uint64_t next_same_popcount(std::uint64_t mask) {
  if (mask == 0) return 0;
  const std::uint64_t t = mask | (mask - 1);
  return (t + 1) |
         (((~t & (t + 1)) - 1) >>
          (static_cast<unsigned>(std::countr_zero(mask)) + 1));
}

}  // namespace detail

std::size_t dp_state_count(std::size_t n, std::size_t k) {
  return static_cast<std::size_t>(binom(n, k)) << k;
}

std::size_t dp_peak_bytes(std::size_t n, std::size_t value_bytes,
                          bool weighted, bool record_policy) {
  const std::size_t per_state = value_bytes + (weighted ? sizeof(double) : 0);
  std::size_t peak_pair = dp_state_count(n, n);
  std::size_t argmin_total = 0;
  for (std::size_t k = 0; k <= n; ++k) {
    argmin_total += dp_state_count(n, k);  // sums to 3^n
    if (k < n)
      peak_pair = std::max(peak_pair,
                           dp_state_count(n, k) + dp_state_count(n, k + 1));
  }
  return peak_pair * per_state + (std::size_t{1} << n) +
         (record_policy ? argmin_total : 0);
}

void require_dp_feasible(std::size_t n, std::size_t value_bytes, bool weighted,
                         bool record_policy, std::size_t memory_limit_bytes) {
  QPS_REQUIRE(n >= 1, "exact DP needs a non-empty universe");
  QPS_REQUIRE(n <= kMaxUniverse,
              "exact DP limited to n <= 22 (the 2^n characteristic table)");
  const std::size_t need =
      dp_peak_bytes(n, value_bytes, weighted, record_policy);
  if (need > memory_limit_bytes) {
    const std::size_t per_state =
        value_bytes + (weighted ? sizeof(double) : 0);
    std::ostringstream os;
    os << "exact DP for n=" << n << " needs " << (need >> 20)
       << " MiB: max_k [C(n,k)*2^k + C(n,k+1)*2^(k+1)] states * " << per_state
       << " bytes/state + 2^n characteristic bytes"
       << (record_policy ? " + 3^n argmin bytes" : "") << " exceeds the "
       << (memory_limit_bytes >> 20)
       << " MiB cap (DpOptions::memory_limit_bytes)";
    throw std::invalid_argument(os.str());
  }
}

template <class Policy>
DpKernel<Policy>::DpKernel(const QuorumSystem& system, Policy policy,
                           DpOptions options)
    : policy_(std::move(policy)),
      options_(options),
      n_(system.universe_size()) {
  require_dp_feasible(n_, sizeof(Value), Policy::kWeighted,
                      options_.record_policy, options_.memory_limit_bytes);
  table_ = std::make_unique<CharTable>(system);
  if (options_.record_policy) argmin_tables_.resize(n_ + 1);
  solve();
}

template <class Policy>
void DpKernel<Policy>::solve() {
  QPS_TRACE_SPAN("exact/solve", "exact");
  DpMetrics& metrics = DpMetrics::get();
  metrics.solves.increment();
  ThreadPool& pool = ThreadPool::local(options_.threads);

  std::vector<Value> values_next;
  std::vector<Value> values_cur;
  std::vector<double> weights_next;
  std::vector<double> weights_cur;

  for (std::size_t k = n_ + 1; k-- > 0;) {
    QPS_TRACE_SPAN("exact/level", "exact");
    std::uint64_t level_t0 = 0;
    if constexpr (obs::kMetricsCompiled) level_t0 = obs::monotonic_us();
    const std::size_t total = dp_state_count(n_, k);
    try {
      QPS_FAULT_POINT("exact/level_alloc");  // alloc action: forced OOM here
      values_cur.assign(total, Value{});
      if constexpr (Policy::kWeighted) weights_cur.assign(total, 0.0);
      if (options_.record_policy) argmin_tables_[k].assign(total, kDpNoProbe);
    } catch (const std::bad_alloc&) {
      const std::size_t bytes =
          total * (sizeof(Value) + (Policy::kWeighted ? sizeof(double) : 0) +
                   (options_.record_policy ? 1 : 0));
      throw BudgetExceeded(n_, k, bytes);
    }
    if constexpr (Policy::kWeighted) {
      const std::size_t blocks = static_cast<std::size_t>(binom(n_, k));
      pool.parallel_for(0, blocks, 64,
                        [&](std::size_t block_begin, std::size_t block_end) {
                          scatter_weights_range(k, block_begin, block_end,
                                                weights_cur);
                        });
    }
    std::vector<std::uint8_t>* argmin =
        options_.record_policy ? &argmin_tables_[k] : nullptr;
    pool.parallel_for(0, total, kStateGrain,
                      [&](std::size_t state_begin, std::size_t state_end) {
                        evaluate_states(k, state_begin, state_end, values_next,
                                        weights_next, values_cur, argmin);
                      });
    values_next = std::move(values_cur);
    if constexpr (Policy::kWeighted) weights_next = std::move(weights_cur);
    metrics.levels.increment();
    if constexpr (obs::kMetricsCompiled) {
      metrics.level_us.record(obs::monotonic_us() - level_t0);
      // Live DP frontier: the level just produced, plus its weights when
      // the policy carries them.
      metrics.frontier_bytes.set(static_cast<std::int64_t>(
          values_next.size() * sizeof(Value) +
          (Policy::kWeighted ? weights_next.size() * sizeof(double) : 0)));
    }
  }
  root_value_ = values_next[0];
}

template <class Policy>
void DpKernel<Policy>::scatter_weights_range(std::size_t k,
                                             std::size_t block_begin,
                                             std::size_t block_end,
                                             std::vector<double>& weights)
    const {
  if constexpr (Policy::kWeighted) {
    const std::vector<std::uint64_t>& support = policy_.support();
    const std::vector<double>& weight = policy_.weights();
    std::uint64_t probed = detail::colex_unrank(block_begin, k);
    for (std::size_t b = block_begin; b < block_end; ++b) {
      double* slot = weights.data() + (b << k);
      for (std::size_t i = 0; i < support.size(); ++i)
        slot[detail::compress_submask(support[i] & probed, probed)] +=
            weight[i];
      probed = detail::next_same_popcount(probed);
    }
  } else {
    (void)k;
    (void)block_begin;
    (void)block_end;
    (void)weights;
  }
}

template <class Policy>
void DpKernel<Policy>::evaluate_states(
    std::size_t k, std::size_t state_begin, std::size_t state_end,
    const std::vector<Value>& next_values,
    const std::vector<double>& next_weights, std::vector<Value>& values,
    std::vector<std::uint8_t>* argmin) {
  const std::uint64_t full = table_->full_mask();

  // Per-child lookup tables, rebuilt once per probed block: the child's
  // dense base in level k+1 and the compressed position the probed element
  // occupies there (greens indices gain one bit at that position).
  struct Child {
    std::uint8_t element;
    std::uint8_t insert_pos;
    const Value* values;
    const double* weights;
  };
  std::array<Child, kMaxUniverse> children{};

  std::size_t b = state_begin >> k;
  std::uint64_t probed = detail::colex_unrank(b, k);
  while ((b << k) < state_end) {
    const std::size_t block_lo = b << k;
    const std::size_t lo = std::max(state_begin, block_lo);
    const std::size_t hi =
        std::min(state_end, block_lo + (std::size_t{1} << k));
    const std::uint64_t unprobed = full & ~probed;

    std::size_t child_count = 0;
    for (std::size_t e = 0; e < n_; ++e) {
      const std::uint64_t bit = 1ULL << e;
      if (probed & bit) continue;
      const std::size_t child_base = detail::colex_rank(probed | bit)
                                     << (k + 1);
      Child child{static_cast<std::uint8_t>(e),
                  static_cast<std::uint8_t>(std::popcount(probed & (bit - 1))),
                  next_values.data() + child_base, nullptr};
      if constexpr (Policy::kWeighted)
        child.weights = next_weights.data() + child_base;
      children[child_count++] = child;
    }

    // Submask enumeration in descending compressed-index order: stepping
    // (greens - 1) & probed walks gidx down by exactly one.
    std::size_t gidx = hi - 1 - block_lo;
    std::uint64_t greens = expand_submask(gidx, probed);
    for (;;) {
      Value value;
      std::uint8_t arg = kDpNoProbe;
      if (table_->contains_quorum(greens) ||
          !table_->contains_quorum(greens | unprobed)) {
        value = policy_.terminal_value();
      } else {
        Value best = policy_.init_value(n_);
        for (std::size_t c = 0; c < child_count; ++c) {
          const Child& child = children[c];
          const std::uint32_t low =
              static_cast<std::uint32_t>(gidx) &
              ((1u << child.insert_pos) - 1);
          const std::uint32_t red_idx =
              ((static_cast<std::uint32_t>(gidx >> child.insert_pos))
               << (child.insert_pos + 1)) |
              low;
          const std::uint32_t green_idx = red_idx | (1u << child.insert_pos);
          Value candidate;
          if constexpr (Policy::kWeighted) {
            candidate = policy_.probe_cost(
                child.values[green_idx], child.values[red_idx],
                child.weights[green_idx], child.weights[red_idx]);
          } else {
            candidate = policy_.probe_cost(child.values[green_idx],
                                           child.values[red_idx]);
          }
          if (candidate < best) {
            best = candidate;
            arg = child.element;
          }
        }
        value = best;
      }
      values[block_lo + gidx] = value;
      if (argmin != nullptr) (*argmin)[block_lo + gidx] = arg;
      if (k == 0) root_probe_ = arg == kDpNoProbe ? n_ : arg;
      if (gidx == lo - block_lo) break;
      --gidx;
      greens = (greens - 1) & probed;
    }

    ++b;
    probed = detail::next_same_popcount(probed);
  }
}

template <class Policy>
std::size_t DpKernel<Policy>::policy_probe(std::uint64_t probed,
                                           std::uint64_t greens) const {
  QPS_REQUIRE(!argmin_tables_.empty(),
              "policy_probe() needs DpOptions::record_policy");
  const auto k = static_cast<std::size_t>(std::popcount(probed));
  const std::size_t index = (detail::colex_rank(probed) << k) |
                            detail::compress_submask(greens, probed);
  const std::uint8_t element = argmin_tables_[k][index];
  return element == kDpNoProbe ? n_ : element;
}

template class DpKernel<MinimaxPolicy>;
template class DpKernel<ExpectationPolicy>;
template class DpKernel<DistributionPolicy>;

}  // namespace qps::exact
