// qps_perfbench: the repository benchmark program.
//
//   qps_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR]
//
// Untraced (--trace 0) runs time the workload's passes for S seconds and
// report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer metrics instead.  The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it,
// "perfbench-context {...}", names the resolved SIMD kernels for the
// ledger.  perfbench/README.md documents every workload and metric.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "core/engine/simd.h"
#include "report.h"
#include "util/json.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace {

// The CPU brand string from CPUID (x86), for the ledger row.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

int usage(const std::string& why) {
  std::cerr << "qps_perfbench: " << why
            << "\nusage: qps_perfbench --workload "
               "mc_grid|mc_half|exact_dp|sweep_sharded --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  bool sweep_worker = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep-worker") {
      sweep_worker = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      return usage("bad argument " + arg);
    }
  }
  perfbench::Args args;
  try {
    args.seed = std::stoull(flags.count("seed") ? flags["seed"] : "1");
    args.seconds = std::stod(flags.count("seconds") ? flags["seconds"] : "10");
    args.trace = (flags.count("trace") ? flags["trace"] : "0") == "1";
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  if (sweep_worker) return perfbench::serve_sweep_worker(args.seed);

  args.workload = flags["workload"];
  if (flags.count("work-dir")) args.work_dir = flags["work-dir"];
  args.threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  args.self_exe = std::filesystem::absolute(argv[0]).string();

  const std::map<std::string, void (*)(const perfbench::Args&,
                                       perfbench::Outcome&)>
      workloads = {{"mc_grid", perfbench::run_mc_grid},
                   {"mc_half", perfbench::run_mc_half},
                   {"exact_dp", perfbench::run_exact_dp},
                   {"sweep_sharded", perfbench::run_sweep_sharded}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end())
    return usage("unknown workload '" + args.workload + "'");

  perfbench::Outcome out;
  try {
    std::filesystem::create_directories(args.work_dir);
    it->second(args, out);
  } catch (const std::exception& e) {
    std::cerr << "qps_perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  const qps::SimdKernels& kernels =
      qps::resolve_simd_kernels(qps::SimdIsa::kAuto);
  std::cout << "perfbench-context {\"simd_isa\": \""
            << qps::simd_isa_name(kernels.isa)
            << "\", \"lane_width\": " << kernels.width
            << ", \"threads\": " << args.threads << ", \"nproc\": "
            << std::thread::hardware_concurrency() << ", \"cpu_model\": "
            << qps::json_quote(cpu_model()) << "}\n";
  std::cout << out.json() << std::endl;
  return 0;
}
