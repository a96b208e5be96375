// Ablation A8: Start-Gap wear leveling under the proposed scheme. The
// paper's endurance story counts total NVM writes; this harness shows the
// *distribution*: without leveling, demand-write hot spots age single
// frames far faster than the average.
#include <iostream>

#include "bench_common.hpp"
#include "sim/policy_factory.hpp"
#include "synth/generator.hpp"
#include "trace/trace_stats.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTrace);
  bench::print_header("Ablation — Start-Gap wear leveling on the NVM module",
                      ctx);

  TextTable table({"workload", "leveling", "NVM writes", "max frame wear",
                   "wear imbalance (max/mean)"});
  for (const char* workload : {"facesim", "vips", "x264"}) {
    const auto profile = synth::parsec_profile(workload).scaled(ctx.scale);
    synth::GeneratorOptions options;
    options.seed = ctx.seed;
    const auto trace = synth::generate(profile, options);
    const auto footprint =
        trace::characterize(trace, options.page_size).distinct_pages;
    for (const bool leveling : {false, true}) {
      sim::ExperimentConfig config;
      config.policy = "two-lru";
      config.wear_leveling = leveling;
      const auto sizing = sim::size_memory(footprint, config);
      os::VmmConfig vmm_config;
      vmm_config.dram_frames = sizing.dram_frames;
      vmm_config.nvm_frames = sizing.nvm_frames;
      vmm_config.wear_leveling = leveling;
      vmm_config.wear_gap_interval = 1;
      os::Vmm vmm(vmm_config);
      const auto policy = sim::make_policy(config.policy, vmm);
      // Wear leveling acts over device lifetimes: one gap cycle needs
      // ~nvm_frames page writes, so replay the trace for several rounds to
      // let the remapping sweep the address space.
      constexpr int kRounds = 16;
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& access : trace) {
          policy->on_access(trace::page_of(access.addr, 4096), access.type);
        }
      }
      const auto& wear = vmm.nvm_endurance();
      table.add_row({workload, leveling ? "start-gap" : "none",
                     std::to_string(wear.total_writes()),
                     std::to_string(wear.max_wear()),
                     TextTable::fmt(wear.wear_imbalance(), 2)});
    }
  }
  std::cout << table.to_string();
  std::cout << "\nStart-Gap leaves the write total untouched but spreads it"
               ":\nthe max/mean imbalance — which is what actually kills a"
               " PCM device —\ndrops towards 1.\n";
  return 0;
}
