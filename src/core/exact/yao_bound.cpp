#include "core/exact/yao_bound.h"

namespace qps {

double yao_bound(const QuorumSystem& system,
                 const ColoringDistribution& distribution) {
  return yao_bound(system, distribution, exact::DpOptions{});
}

double yao_bound(const QuorumSystem& system,
                 const ColoringDistribution& distribution,
                 const exact::DpOptions& options) {
  const exact::DpKernel<exact::DistributionPolicy> kernel(
      system, exact::DistributionPolicy(distribution), options);
  return kernel.root_value();
}

}  // namespace qps
