// Ablation A5: separate modules over DMA (the paper's architecture) vs an
// integrated module with pipelined page copies (its Section II alternative:
// "if both memory types can be assembled in one module, the migrations can
// be done more effectively"). Energy and endurance are unchanged — only the
// migration latency composition differs (sum vs max).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);
  bench::print_header("Ablation — DMA vs integrated-module migration", ctx);

  std::vector<synth::WorkloadProfile> workloads;
  for (const char* name :
       {"facesim", "x264", "canneal", "raytrace", "streamcluster"}) {
    workloads.push_back(synth::parsec_profile(name));
  }
  const std::vector<std::string> policies = {"clock-dwf", "two-lru"};
  std::vector<runner::ConfigVariant> variants(2);
  variants[0].label = "dma";
  variants[1].label = "integrated";
  variants[1].config.transfer_mode = mem::TransferMode::kIntegrated;
  const auto sweep = bench::run_grid(workloads, policies, ctx, variants);
  if (sweep.failures() != 0) return 1;

  // Grid order is workload-major, then policy, then {dma, integrated}.
  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::cout << "--- " << policies[p] << " ---\n";
    TextTable table({"workload", "AMAT dma (ns)", "AMAT integrated (ns)",
                     "migration dma (ns)", "migration integrated (ns)",
                     "speedup"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      const std::size_t dma = (w * policies.size() + p) * variants.size();
      const auto a = sweep.jobs[dma].result.amat();
      const auto b = sweep.jobs[dma + 1].result.amat();
      table.add_row({workloads[w].name, TextTable::fmt(a.total(), 1),
                     TextTable::fmt(b.total(), 1),
                     TextTable::fmt(a.migration_ns, 1),
                     TextTable::fmt(b.migration_ns, 1),
                     TextTable::fmt(a.total() / b.total(), 3)});
    }
    std::cout << table.to_string() << '\n';
  }
  std::cout << "Integrated copies shrink only the migration term; policies"
               "\nthat migrate heavily (CLOCK-DWF) benefit the most — the"
               "\nthreshold-filtered scheme has little migration left to"
               " accelerate.\n";
  return 0;
}
