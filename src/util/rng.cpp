#include "util/rng.h"

#include <cmath>

#include "util/require.h"

namespace qps {

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state is the one forbidden state of xoshiro; splitmix64 cannot
  // produce four zero outputs in a row, but keep the guard for clarity.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  QPS_REQUIRE(lo <= hi, "uniform_int() needs lo <= hi");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::uniform_real(double lo, double hi) {
  QPS_REQUIRE(lo <= hi, "uniform_real() needs lo <= hi");
  return lo + (hi - lo) * uniform01();
}

double Rng::exponential(double lambda) {
  QPS_REQUIRE(lambda > 0.0, "exponential() needs lambda > 0");
  // Inverse-CDF; 1 - uniform01() is in (0, 1], so log() is finite.
  return -std::log1p(-uniform01()) / lambda;
}

std::vector<std::uint32_t> Rng::permutation(std::uint32_t n) {
  std::vector<std::uint32_t> p;
  permutation_into(p, n);
  return p;
}

void Rng::permutation_into(std::vector<std::uint32_t>& out, std::uint32_t n) {
  out.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) out[i] = i;
  shuffle(out);
}

Rng Rng::fork() { return Rng(next_u64() ^ 0xa0761d6478bd642fULL); }

Rng Rng::for_stream(std::uint64_t seed, std::uint64_t stream) {
  // Mix the root seed once, offset by the stream index, and mix again: the
  // splitmix64 finalizer is bijective with full avalanche, so adjacent
  // stream indices land on unrelated xoshiro seed states.
  std::uint64_t state = seed;
  std::uint64_t stream_state = splitmix64(state) + stream;
  return Rng(splitmix64(stream_state));
}

}  // namespace qps
