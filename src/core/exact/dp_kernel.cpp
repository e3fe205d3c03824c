#include "core/exact/dp_kernel.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <new>
#include <sstream>
#include <stdexcept>

#include <sys/mman.h>

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
  obs::Counter& frontier_allocs =
      obs::MetricsRegistry::instance().counter("exact/frontier_allocs");

  static DpMetrics& get() {
    static DpMetrics metrics;
    return metrics;
  }
};

/// The calling thread's frontier: one grow-only block, kept across solves
/// so that a repeated solve neither maps nor faults in a page.  It is
/// unmapped before a larger one is mapped (the two are never held
/// together), whenever it exceeds a solve's memory limit, and at thread
/// exit.  The block is its own mapping rather than the allocator's, so
/// unmapping it returns its pages at once.
class FrontierBlock {
 public:
  FrontierBlock() = default;
  FrontierBlock(const FrontierBlock&) = delete;
  FrontierBlock& operator=(const FrontierBlock&) = delete;
  ~FrontierBlock() { release(); }

  static FrontierBlock& local() {
    thread_local FrontierBlock block;
    return block;
  }

  /// At least `bytes` of uninitialised frontier.  A block smaller than
  /// `bytes` or larger than `limit` is released first; std::bad_alloc
  /// (real, or the "exact/level_alloc" fault, consulted on every call)
  /// leaves the block either as it was or released.
  std::byte* acquire(std::size_t bytes, std::size_t limit) {
    if (bytes_ < bytes || bytes_ > limit) release();
    QPS_FAULT_POINT("exact/level_alloc");  // alloc action: forced OOM here
    if (data_ == nullptr) {
      void* block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (block == MAP_FAILED) throw std::bad_alloc();
      data_ = static_cast<std::byte*>(block);
      bytes_ = bytes;
      DpMetrics::get().frontier_allocs.increment();
    }
    return data_;
  }

 private:
  void release() {
    if (data_ != nullptr) ::munmap(data_, bytes_);
    data_ = nullptr;
    bytes_ = 0;
  }

  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
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

/// Folds `count` Bellman candidates of one child element into the parent
/// states best[first, first + count): candidate i costs
/// probe_cost(values[green + i * kStride], values[red + i * kStride]), with
/// the matching weights for weighted policies.  Strict < keeps the earlier,
/// smaller element on ties.  Both forms are selects, not branches; without
/// kTrack the fold is a plain running min the compiler vectorises.
template <std::size_t kStride, bool kTrack, class Policy>
void fold_run(const Policy& policy,
              const typename Policy::Value* __restrict values,
              const double* __restrict weights, std::size_t red,
              std::size_t green, std::size_t first, std::size_t count,
              typename Policy::Value* __restrict best,
              std::uint8_t* __restrict arg, std::uint8_t element) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = red + i * kStride;
    const std::size_t g = green + i * kStride;
    typename Policy::Value candidate{};
    if constexpr (Policy::kWeighted) {
      candidate = policy.probe_cost(values[g], values[r], weights[g],
                                    weights[r]);
    } else {
      candidate = policy.probe_cost(values[g], values[r]);
    }
    const std::size_t s = first + i;
    const bool better = candidate < best[s];
    best[s] = better ? candidate : best[s];
    if constexpr (kTrack) arg[s] = better ? element : arg[s];
  }
}

/// Folds child `element` of one probed block into the block's states
/// [lo, hi) (compressed green indices).  State g's red child is g with a 0
/// bit inserted at `pos`, the element's position in the child's probed set,
/// and its green child has a 1 there; so the reds and greens of 2^pos
/// consecutive states are adjacent runs of the child block, streamed once.
/// pos = 0 interleaves them (stride 2).
template <bool kTrack, class Policy>
void fold_child(const Policy& policy, const typename Policy::Value* values,
                const double* weights, unsigned pos, std::size_t lo,
                std::size_t hi, typename Policy::Value* best,
                std::uint8_t* arg, std::uint8_t element) {
  if (pos == 0) {
    fold_run<2, kTrack>(policy, values, weights, 2 * lo, 2 * lo + 1, lo,
                        hi - lo, best, arg, element);
    return;
  }
  const std::size_t run = std::size_t{1} << pos;
  for (std::size_t g = lo; g < hi;) {
    const std::size_t end = std::min(hi, (g | (run - 1)) + 1);
    const std::size_t red = ((g >> pos) << (pos + 1)) | (g & (run - 1));
    fold_run<1, kTrack>(policy, values, weights, red, red + run, g, end - g,
                        best, arg, element);
    g = end;
  }
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

DpFrontierLayout dp_frontier_layout(std::size_t n) {
  DpFrontierLayout layout;
  for (std::size_t k = 0; k <= n; ++k) {
    std::size_t& half = k % 2 == 0 ? layout.even_states : layout.odd_states;
    half = std::max(half, dp_state_count(n, k));
  }
  return layout;
}

std::size_t dp_peak_bytes(std::size_t n, std::size_t value_bytes,
                          bool weighted, bool record_policy) {
  const std::size_t per_state = value_bytes + (weighted ? sizeof(double) : 0);
  std::size_t argmin_total = 0;
  for (std::size_t k = 0; k <= n; ++k)
    argmin_total += dp_state_count(n, k);  // sums to 3^n
  return dp_frontier_layout(n).states() * per_state + (std::size_t{1} << n) +
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

  // The frontier, the calling thread's block, uninitialised: every state
  // of a level is written before the level below reads it, and the
  // weights are zeroed block by block as they are scattered.  Values come
  // first and the weights follow them, on an 8-byte boundary.
  static_assert(!Policy::kWeighted || sizeof(Value) % alignof(double) == 0);
  const DpFrontierLayout layout = dp_frontier_layout(n_);
  constexpr std::size_t kStateBytes =
      sizeof(Value) + (Policy::kWeighted ? sizeof(double) : 0);
  const std::size_t frontier_bytes = layout.states() * kStateBytes;
  std::byte* block = nullptr;
  try {
    block = FrontierBlock::local().acquire(frontier_bytes,
                                           options_.memory_limit_bytes);
  } catch (const std::bad_alloc&) {
    throw BudgetExceeded(n_, n_, frontier_bytes);
  }
  if constexpr (obs::kMetricsCompiled)
    metrics.frontier_bytes.set(static_cast<std::int64_t>(frontier_bytes));
  const auto level = [&](std::size_t k) {
    Level slice{reinterpret_cast<Value*>(block) + layout.offset(k), nullptr};
    if constexpr (Policy::kWeighted)
      slice.weights = reinterpret_cast<double*>(
                          block + layout.states() * sizeof(Value)) +
                      layout.offset(k);
    return slice;
  };

  for (std::size_t k = n_ + 1; k-- > 0;) {
    QPS_TRACE_SPAN("exact/level", "exact");
    std::uint64_t level_t0 = 0;
    if constexpr (obs::kMetricsCompiled) level_t0 = obs::monotonic_us();
    const std::size_t total = dp_state_count(n_, k);
    std::uint8_t* argmin = nullptr;
    if (options_.record_policy) {
      try {
        QPS_FAULT_POINT("exact/level_alloc");
        argmin_tables_[k] =
            std::make_unique_for_overwrite<std::uint8_t[]>(total);
      } catch (const std::bad_alloc&) {
        throw BudgetExceeded(n_, k, total);
      }
      argmin = argmin_tables_[k].get();
    }
    const Level cur = level(k);
    const Level next = level(k + 1);
    if constexpr (Policy::kWeighted) {
      const std::size_t blocks = static_cast<std::size_t>(binom(n_, k));
      pool.parallel_for(0, blocks, 64,
                        [&](std::size_t block_begin, std::size_t block_end) {
                          scatter_weights_range(k, block_begin, block_end,
                                                cur.weights);
                        });
    }
    pool.parallel_for(0, total, kStateGrain,
                      [&](std::size_t state_begin, std::size_t state_end) {
                        evaluate_states(k, state_begin, state_end, next, cur,
                                        argmin);
                      });
    metrics.levels.increment();
    if constexpr (obs::kMetricsCompiled)
      metrics.level_us.record(obs::monotonic_us() - level_t0);
  }
  root_value_ = level(0).values[0];
}

template <class Policy>
void DpKernel<Policy>::scatter_weights_range(std::size_t k,
                                             std::size_t block_begin,
                                             std::size_t block_end,
                                             double* weights) const {
  if constexpr (Policy::kWeighted) {
    const std::vector<std::uint64_t>& support = policy_.support();
    const std::vector<double>& weight = policy_.weights();
    std::uint64_t probed = detail::colex_unrank(block_begin, k);
    for (std::size_t b = block_begin; b < block_end; ++b) {
      double* slot = weights + (b << k);
      std::fill(slot, slot + (std::size_t{1} << k), 0.0);
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
void DpKernel<Policy>::evaluate_states(std::size_t k, std::size_t state_begin,
                                       std::size_t state_end, Level next,
                                       Level cur, std::uint8_t* argmin) {
  const std::uint64_t full = table_->full_mask();
  // The argmin is kept only where it is read: the recorded policy, and the
  // root's optimal first probe.
  const bool track = argmin != nullptr || k == 0;
  std::uint8_t root_arg = kDpNoProbe;

  std::size_t b = state_begin >> k;
  std::uint64_t probed = detail::colex_unrank(b, k);
  while ((b << k) < state_end) {
    // This chunk's share [lo, hi) of block b, as compressed green indices.
    const std::size_t block_lo = b << k;
    const std::size_t lo = std::max(state_begin, block_lo) - block_lo;
    const std::size_t hi =
        std::min(state_end - block_lo, std::size_t{1} << k);
    const std::uint64_t unprobed = full & ~probed;
    Value* best = cur.values + block_lo;
    std::uint8_t* arg = argmin != nullptr ? argmin + block_lo : &root_arg;
    std::fill(best + lo, best + hi, policy_.init_value(n_));
    if (track) std::fill(arg + lo, arg + hi, kDpNoProbe);

    // Child-major fold, elements ascending: the child's dense base in
    // level k+1 and the compressed position the element occupies there.
    for (std::uint64_t rest = unprobed; rest != 0; rest &= rest - 1) {
      const std::uint64_t bit = rest & (~rest + 1);
      const auto element = static_cast<std::uint8_t>(std::countr_zero(rest));
      const auto pos = static_cast<unsigned>(std::popcount(probed & (bit - 1)));
      const std::size_t child_base = detail::colex_rank(probed | bit)
                                     << (k + 1);
      const double* child_weights = nullptr;
      if constexpr (Policy::kWeighted)
        child_weights = next.weights + child_base;
      if (track) {
        fold_child<true>(policy_, next.values + child_base, child_weights,
                         pos, lo, hi, best, arg, element);
      } else {
        fold_child<false>(policy_, next.values + child_base, child_weights,
                          pos, lo, hi, best, arg, element);
      }
    }

    // Terminal states make no probe; submasks ascend with the index.
    std::uint64_t greens = expand_submask(lo, probed);
    for (std::size_t g = lo; g < hi; ++g) {
      if (table_->contains_quorum(greens) ||
          !table_->contains_quorum(greens | unprobed)) {
        best[g] = policy_.terminal_value();
        if (track) arg[g] = kDpNoProbe;
      }
      greens = ((greens | ~probed) + 1) & probed;
    }

    ++b;
    probed = detail::next_same_popcount(probed);
  }
  if (k == 0) {
    const std::uint8_t root = argmin != nullptr ? argmin[0] : root_arg;
    root_probe_ = root == kDpNoProbe ? n_ : root;
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
