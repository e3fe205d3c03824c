#include "core/engine/batch_kernel.h"

#include <algorithm>

#include "core/obs/metrics.h"
#include "core/strategy.h"
#include "util/stats.h"

namespace qps {

namespace {

struct KernelMetrics {
  obs::Counter& trials =
      obs::MetricsRegistry::instance().counter("engine/bitsliced_trials");
  obs::Counter& blocks =
      obs::MetricsRegistry::instance().counter("engine/bitsliced_blocks");
  obs::Counter& simd_blocks =
      obs::MetricsRegistry::instance().counter("engine/simd_blocks");

  static KernelMetrics& get() {
    static KernelMetrics metrics;
    return metrics;
  }
};

// Most probe planes fold_probe_planes() accepts: 29 planes keep one lane
// word's sum of squared counts (below 64 * 2^58) under 2^64.
constexpr std::size_t kMaxFoldPlanes = 29;

}  // namespace

void fold_probe_planes(const std::uint64_t* planes, std::size_t plane_count,
                       const std::uint64_t* active, std::size_t width,
                       CountMoments& out) {
  QPS_REQUIRE(plane_count <= kMaxFoldPlanes, "too many probe planes to fold");
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  unsigned __int128 sum_sq = 0;
  std::uint32_t min = UINT32_MAX;
  std::uint32_t max = 0;
  std::uint64_t m[kMaxFoldPlanes];
  for (std::size_t k = 0; k < width; ++k) {
    const std::uint64_t a = active[k];
    if (a == 0) continue;
    count += static_cast<std::uint64_t>(std::popcount(a));
    for (std::size_t b = 0; b < plane_count; ++b)
      m[b] = planes[b * width + k] & a;
    // One word's sum of squares is below 2^64 (kMaxFoldPlanes), and every
    // term below is a nonnegative part of it.
    std::uint64_t word_sq = 0;
    for (std::size_t b = 0; b < plane_count; ++b) {
      const auto ones = static_cast<std::uint64_t>(std::popcount(m[b]));
      sum += ones << b;
      word_sq += ones << (2 * b);
      for (std::size_t c = b + 1; c < plane_count; ++c)
        word_sq += static_cast<std::uint64_t>(std::popcount(m[b] & m[c]))
                   << (b + c + 1);
    }
    sum_sq += word_sq;
    // MSB-down descent: keep the candidate lanes whose counts agree with
    // the extreme so far on every higher bit.
    std::uint64_t hi = a;
    std::uint64_t lo = a;
    std::uint32_t word_max = 0;
    std::uint32_t word_min = 0;
    for (std::size_t b = plane_count; b-- > 0;) {
      const std::uint64_t hi_set = hi & m[b];
      if (hi_set != 0) {
        hi = hi_set;
        word_max |= std::uint32_t{1} << b;
      }
      const std::uint64_t lo_clear = lo & ~m[b];
      if (lo_clear != 0)
        lo = lo_clear;
      else
        word_min |= std::uint32_t{1} << b;
    }
    max = std::max(max, word_max);
    min = std::min(min, word_min);
  }
  out.merge(CountMoments::from_sums(count, sum, sum_sq, min, max));
}

std::size_t lane_shuffle_words(std::size_t size) {
  std::size_t words = 0;
  for (std::size_t i = size; i > 1; --i)
    words += static_cast<std::size_t>(std::bit_width(i - 1));
  return words;
}

std::size_t draw_lane_shuffle(Rng& rng, std::size_t size, std::uint64_t* out) {
  std::size_t used = 0;
  for (std::size_t i = size; i > 1; --i)
    used += draw_lane_below(rng, i, out + used);
  return used;
}

namespace {

/// Fills table[a] (a < 2^bits) with the lanes whose value in `planes`
/// equals a, by doubling: each plane splits every entry in two.
void decode_one_hot(const std::uint64_t* planes, std::size_t bits,
                    std::uint64_t* table) {
  table[0] = ~std::uint64_t{0};
  for (std::size_t b = 0, size = 1; b < bits; ++b, size *= 2) {
    for (std::size_t a = 0; a < size; ++a) {
      table[a + size] = table[a] & planes[b];
      table[a] &= ~planes[b];
    }
  }
}

}  // namespace

std::size_t BatchTrialBlock::shuffle_rows(std::size_t group,
                                          const std::uint64_t* shuffle,
                                          std::size_t first, std::size_t size) {
  QPS_REQUIRE(group < width() && first + size <= n_,
              "shuffle_rows outside the block");
  const std::size_t w = width();
  std::uint64_t* rows = element_greens_.data() + first * w + group;
  std::size_t used = 0;
  for (std::size_t i = size; i > 1; --i) {
    // J_i's planes split into low and high bits; lane l's one-hot row is
    // low[J_i & low_mask] & high[J_i >> low_bits].
    const auto bits = static_cast<std::size_t>(std::bit_width(i - 1));
    const std::size_t low_bits = (bits + 1) / 2;
    const std::size_t low_count = std::size_t{1} << low_bits;
    std::uint64_t* low = decode_.data();
    std::uint64_t* high = low + low_count;
    decode_one_hot(shuffle + used, low_bits, low);
    decode_one_hot(shuffle + used + low_bits, bits - low_bits, high);
    used += bits;
    // Row i-1 trades with row J_i: lanes with J_i = j take row j's color
    // into row i-1 and give it row i-1's.  The one-hot masks are disjoint,
    // so every row j < i-1 swaps against the original top row.
    std::uint64_t* top = rows + (i - 1) * w;
    const std::uint64_t old_top = *top;
    std::uint64_t moved = 0;
    for (std::size_t j = 0, h = 0; j + 1 < i; ++h) {
      const std::size_t end = std::min(j + low_count, i - 1);
      const std::uint64_t hi = high[h];
      if (hi == 0) {
        j = end;
        continue;
      }
      for (std::size_t l = 0; j < end; ++j, ++l) {
        std::uint64_t* row = rows + j * w;
        const std::uint64_t d = (old_top ^ *row) & low[l] & hi;
        *row ^= d;
        moved |= d;
      }
    }
    *top = old_top ^ moved;
  }
  return used;
}

void run_bit_sliced_trials(const ProbeStrategy& strategy,
                           BatchTrialBlock& block,
                           const std::uint64_t* lane_words,
                           std::size_t trial_count, std::size_t universe_size,
                           Rng& rng, CountMoments& out) {
  QPS_REQUIRE(block.universe_size() == universe_size,
              "batch block configured for a different universe");
  KernelMetrics& metrics = KernelMetrics::get();
  metrics.trials.add(trial_count);
  const std::size_t cap = block.lane_capacity();
  for (std::size_t offset = 0; offset < trial_count; offset += cap) {
    const std::size_t lanes = std::min(cap, trial_count - offset);
    block.load_lanes(lane_words + (offset / 64) * universe_size, lanes);
    strategy.run_batch(block, rng);
    metrics.blocks.add((lanes + 63) / 64);   // 64-lane blocks, as in PR 5
    metrics.simd_blocks.increment();         // one W-wide super-block
    block.fold_probe_counts(out);
  }
}

}  // namespace qps
