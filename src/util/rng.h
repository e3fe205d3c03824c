// Deterministic, explicitly-seeded random number generation.
//
// All randomness in the library flows through qps::Rng so that every
// experiment and every randomized probe strategy is reproducible from a
// printed 64-bit seed.  The generator is xoshiro256++ seeded via splitmix64,
// which is fast, has a 2^256-1 period, and passes BigCrush; we avoid
// std::mt19937 because its seeding from a single integer is notoriously weak
// and its state is large.  The hot draws -- splitmix64, next_u64 and
// below -- are defined inline here: the batched coloring sampler and the
// randomized strategies' lane-major choice draws call them per word, and
// their per-trial run() paths per element, where an out-of-line call
// costs more than the draw itself.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/require.h"

namespace qps {

/// splitmix64 step (Steele, Lea & Flood, OOPSLA 2014): advances `state` by
/// the golden-ratio increment and returns its finalizer mix.  Used for
/// seeding, as a cheap stateless mixer, and as the per-word keyed stream
/// of the batched coloring sampler (core/coloring.h).
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 uniform random bits.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  `bound` must be positive.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) {
    QPS_REQUIRE(bound > 0, "below() needs a positive bound");
    // Lemire's method: multiply-shift with rejection in the biased band.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01();

  /// True with probability `p` (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Exponentially distributed value with rate `lambda` (> 0).
  double exponential(double lambda);

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::uint32_t> permutation(std::uint32_t n);

  /// Allocation-free variant of permutation(): refills `out` with a shuffle
  /// of [0, n), reusing its capacity.  Draws exactly the same generator
  /// sequence as permutation(n), so the two are interchangeable in
  /// reproducible runs; the trial hot path uses this with a workspace
  /// buffer.
  void permutation_into(std::vector<std::uint32_t>& out, std::uint32_t n);

  /// In-place Fisher-Yates shuffle of a raw span.  Same draw sequence as
  /// shuffle() on a vector of the same size.
  template <typename T>
  void shuffle_span(T* data, std::size_t size) {
    for (std::size_t i = size; i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(data[i - 1], data[j]);
    }
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    shuffle_span(v.data(), v.size());
  }

  /// In-place Fisher-Yates shuffle of a fixed-size array.
  template <typename T, std::size_t N>
  void shuffle_array(std::array<T, N>& v) {
    for (std::size_t i = N; i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Forks an independent generator (streams are decorrelated by remixing).
  Rng fork();

  /// Deterministic per-stream generator: the generator for (seed, k) is a
  /// pure function of both values, and distinct stream indices give
  /// decorrelated sequences.  Used by the parallel estimation engine to
  /// give every trial batch its own reproducible stream regardless of
  /// which thread runs it.
  static Rng for_stream(std::uint64_t seed, std::uint64_t stream);

  /// Satisfies UniformRandomBitGenerator so std:: algorithms can use Rng.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

}  // namespace qps
