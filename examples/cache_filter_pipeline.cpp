// Full-pipeline example: a multi-core CPU-level stream is filtered through
// the Table II cache hierarchy (the COTSon stand-in) and the surviving
// main-memory accesses drive the hybrid memory — the complete methodology
// of the paper in one program.
//
//   $ cache_filter_pipeline [--cores 4] [--accesses 200000] [--policy two-lru]
//                           [--private-kb 8192] [--shared-kb 2048] [--seed 7]
#include <exception>
#include <iostream>

#include "cachesim/hierarchy.hpp"
#include "sim/experiment.hpp"
#include "synth/cpu_stream.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hymem;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.reject_unknown(
      {"cores", "accesses", "private-kb", "shared-kb", "seed", "policy"});
  synth::CpuStreamOptions cpu_opts;
  cpu_opts.cores = static_cast<unsigned>(args.get_uint("cores", 4, 1));
  cpu_opts.accesses_per_core = args.get_uint("accesses", 200000);
  cpu_opts.private_bytes = args.get_uint("private-kb", 8192) * 1024;
  cpu_opts.shared_bytes = args.get_uint("shared-kb", 2048) * 1024;
  cpu_opts.seed = args.get_uint("seed", 7);

  std::cout << "1) generating CPU-level stream: " << cpu_opts.cores
            << " cores x " << cpu_opts.accesses_per_core << " accesses\n";
  const auto cpu_trace = synth::generate_cpu_stream(cpu_opts);

  std::cout << "2) filtering through the Table II hierarchy (32KB L1 x"
            << cpu_opts.cores << ", 2MB shared LLC, MESI)\n";
  cachesim::HierarchyStats hstats;
  const auto mem_trace =
      cachesim::Hierarchy::filter(cpu_trace, cachesim::HierarchyConfig{}, &hstats);
  std::cout << "   L1 hit " << TextTable::fmt(100 * hstats.l1_hit_ratio(), 1)
            << "%, LLC hit " << TextTable::fmt(100 * hstats.llc_hit_ratio(), 1)
            << "%, invalidations " << hstats.invalidations
            << ", dirty LLC writebacks " << hstats.llc_writebacks << "\n   "
            << cpu_trace.size() << " CPU accesses -> " << mem_trace.size()
            << " memory accesses ("
            << TextTable::fmt(100 * hstats.memory_filter_ratio(), 2) << "%)\n";

  std::cout << "3) replaying the memory trace on the hybrid memory\n";
  sim::ExperimentConfig config;
  config.policy = args.get("policy", "two-lru");
  const auto result = sim::run_experiment(mem_trace, /*duration_s=*/0.05, config);

  std::cout << "   policy " << result.policy << ": AMAT "
            << TextTable::fmt(result.amat().total(), 1) << " ns, APPR "
            << TextTable::fmt(result.appr().total(), 2) << " nJ, migrations "
            << result.counts.migrations() << ", NVM writes "
            << result.nvm_writes().total() << "\n";
  return 0;
}

}  // namespace

// Bad input (an unknown flag or --policy, a malformed number) ends the run
// with one line on stderr and exit code 2, not an uncaught exception.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cache_filter_pipeline: " << e.what() << "\n";
    return 2;
  }
}
