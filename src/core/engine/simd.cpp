#include "core/engine/simd.h"

namespace qps {

namespace {

// The two widths of simd_kernels.inc.h, each in its own namespace.
namespace w1 {
constexpr std::size_t kW = 1;
#include "core/engine/simd_kernels.inc.h"
}  // namespace w1

namespace w4 {
constexpr std::size_t kW = 4;
#include "core/engine/simd_kernels.inc.h"
}  // namespace w4

constexpr SimdKernels kOffTable = {
    SimdIsa::kOff,    1,
    &w1::count_scan,  &w1::tree_scan, &w1::rtree_scan, &w1::hqs_scan,
    &w1::rhqs_scan,   &w1::irhqs_scan, &w1::cw_scan,   &w1::rcw_scan};

constexpr SimdKernels kPortableTable = {
    SimdIsa::kPortable, 4,
    &w4::count_scan,    &w4::tree_scan,  &w4::rtree_scan, &w4::hqs_scan,
    &w4::rhqs_scan,     &w4::irhqs_scan, &w4::cw_scan,    &w4::rcw_scan};

}  // namespace

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAuto:
      return "auto";
    case SimdIsa::kOff:
      return "off";
    case SimdIsa::kPortable:
      return "portable";
  }
  return "unknown";
}

const SimdKernels& resolve_simd_kernels(SimdIsa requested) {
  return requested == SimdIsa::kOff ? kOffTable : kPortableTable;
}

}  // namespace qps
