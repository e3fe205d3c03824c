#include "core/sweep/evaluators.h"

#include <stdexcept>

#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"
#include "quorum/wheel.h"

namespace qps::sweep {

const std::vector<std::vector<std::size_t>>& standard_crumbling_walls() {
  static const std::vector<std::vector<std::size_t>> walls = {
      {1, 2}, {1, 2, 3}, {1, 2, 3, 4}};
  return walls;
}

std::unique_ptr<QuorumSystem> standard_system(const std::string& family,
                                              std::size_t size) {
  if (family == "maj") return std::make_unique<MajoritySystem>(size);
  if (family == "tree") return std::make_unique<TreeSystem>(size);
  if (family == "hqs") return std::make_unique<HQSystem>(size);
  if (family == "cw")
    return std::make_unique<CrumblingWall>(standard_crumbling_walls().at(size));
  if (family == "wheel") return std::make_unique<WheelSystem>(size);
  throw std::invalid_argument("unknown sweep family " + family);
}

}  // namespace qps::sweep
