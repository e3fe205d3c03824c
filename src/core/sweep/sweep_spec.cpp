#include "core/sweep/sweep_spec.h"

#include <cstdio>

#include "core/engine/parallel_estimator.h"
#include "util/require.h"
#include "util/rng.h"

namespace qps::sweep {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Formats p with enough digits to distinguish grid values while keeping
/// ids readable ("0.5", not "0.50000000000000000").
std::string format_p(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", p);
  return buf;
}

}  // namespace

SweepSpec::SweepSpec(std::string name, std::uint64_t base_seed)
    : name_(std::move(name)), base_seed_(base_seed) {
  QPS_REQUIRE(!name_.empty(), "a sweep needs a name");
}

SweepSpec& SweepSpec::add_block(std::string family,
                                std::vector<std::size_t> sizes,
                                std::vector<std::string> strategies) {
  QPS_REQUIRE(!family.empty(), "a sweep block needs a family tag");
  QPS_REQUIRE(!sizes.empty(), "a sweep block needs at least one size");
  if (strategies.empty()) strategies.push_back("");
  blocks_.push_back(
      {std::move(family), std::move(sizes), std::move(strategies)});
  return *this;
}

SweepSpec& SweepSpec::set_ps(std::vector<double> ps) {
  QPS_REQUIRE(!ps.empty(), "set_ps() needs at least one value");
  ps_ = std::move(ps);
  return *this;
}

SweepSpec& SweepSpec::set_config_tag(std::string tag) {
  config_tag_ = std::move(tag);
  return *this;
}

std::string SweepSpec::point_id(const std::string& family, std::size_t size,
                                const std::string& strategy, bool has_p,
                                double p) {
  std::string id = "family=" + family + "/size=" + std::to_string(size);
  if (!strategy.empty()) id += "/strategy=" + strategy;
  if (has_p) id += "/p=" + format_p(p);
  return id;
}

std::uint64_t SweepSpec::derive_seed(std::uint64_t base_seed,
                                     const std::string& family,
                                     std::size_t size,
                                     const std::string& strategy) {
  // Hash the CRN-relevant coordinates (p excluded), then mix with the base
  // seed through one splitmix64 step so nearby hashes land far apart in
  // seed space.
  std::uint64_t h = fnv1a(kFnvOffset, family);
  h = fnv1a(h, "/");
  h = fnv1a(h, std::to_string(size));
  h = fnv1a(h, "/");
  h = fnv1a(h, strategy);
  std::uint64_t state = base_seed ^ h;
  return splitmix64(state);
}

std::vector<SweepPoint> SweepSpec::expand() const {
  std::vector<SweepPoint> points;
  points.reserve(point_count());
  for (const Block& block : blocks_) {
    for (const std::size_t size : block.sizes) {
      for (const std::string& strategy : block.strategies) {
        const std::uint64_t seed =
            derive_seed(base_seed_, block.family, size, strategy);
        if (ps_.empty()) {
          SweepPoint pt;
          pt.index = points.size();
          pt.family = block.family;
          pt.size = size;
          pt.strategy = strategy;
          pt.id = point_id(block.family, size, strategy, false, 0.0);
          pt.seed = seed;
          points.push_back(std::move(pt));
        } else {
          for (const double p : ps_) {
            SweepPoint pt;
            pt.index = points.size();
            pt.family = block.family;
            pt.size = size;
            pt.strategy = strategy;
            pt.has_p = true;
            pt.p = p;
            pt.id = point_id(block.family, size, strategy, true, p);
            pt.seed = seed;  // shared across the p axis: common random numbers
            points.push_back(std::move(pt));
          }
        }
      }
    }
  }
  return points;
}

std::size_t SweepSpec::point_count() const {
  std::size_t count = 0;
  const std::size_t p_count = ps_.empty() ? 1 : ps_.size();
  for (const Block& block : blocks_)
    count += block.sizes.size() * block.strategies.size() * p_count;
  return count;
}

std::uint64_t SweepSpec::fingerprint() const {
  std::uint64_t h = fnv1a(kFnvOffset, name_);
  h = fnv1a(h, "#");
  h = fnv1a(h, std::to_string(base_seed_));
  h = fnv1a(h, "#");
  h = fnv1a(h, config_tag_);
  h = fnv1a(h, "#stream=");
  h = fnv1a(h, std::to_string(kResultStreamVersion));
  for (const SweepPoint& pt : expand()) {
    h = fnv1a(h, "#");
    h = fnv1a(h, pt.id);
  }
  return h;
}

}  // namespace qps::sweep
