// Ablation A1: read/write migration-threshold sweep (Section V.B).
//
// The paper observes that raytrace's optimal thresholds differ from the
// other workloads' (its near-threshold access bursts make migration
// decisions risky). This sweep shows the U-shape: thresholds too low cause
// CLOCK-DWF-like migration storms; too high leaves hot pages stranded in
// NVM. The (workload × threshold) grid fans out over `--jobs` workers.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);
  bench::print_header("Ablation — migration threshold sweep", ctx);

  const std::vector<std::uint64_t> thresholds = {0, 1, 2, 4, 8, 16, 32, 64,
                                                 256};
  std::vector<runner::ConfigVariant> variants;
  for (const std::uint64_t thr : thresholds) {
    runner::ConfigVariant variant;
    variant.label = "thr=" + std::to_string(thr);
    variant.config.migration.read_threshold = thr;
    variant.config.migration.write_threshold = thr + thr / 2;
    variants.push_back(std::move(variant));
  }

  std::vector<synth::WorkloadProfile> workloads;
  for (const char* name : {"raytrace", "facesim", "vips"}) {
    workloads.push_back(synth::parsec_profile(name));
  }
  const auto sweep =
      bench::run_grid(workloads, {"two-lru"}, ctx, variants);

  // Grid order is workload-major, so each workload owns one contiguous
  // chunk of `thresholds.size()` result slots.
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::cout << "--- " << workloads[w].name << " ---\n";
    TextTable table({"read_thr", "write_thr", "promotions/kacc",
                     "APPR (nJ)", "AMAT (ns)", "NVM writes/acc"});
    for (std::size_t t = 0; t < thresholds.size(); ++t) {
      const auto& job = sweep.jobs[w * thresholds.size() + t];
      if (!job.ok) continue;
      const auto& result = job.result;
      const std::uint64_t thr = thresholds[t];
      table.add_row(
          {std::to_string(thr), std::to_string(thr + thr / 2),
           TextTable::fmt(1000.0 *
                              static_cast<double>(
                                  result.counts.migrations_to_dram) /
                              static_cast<double>(result.accesses),
                          2),
           TextTable::fmt(result.appr().total(), 2),
           TextTable::fmt(result.amat().total(), 1),
           TextTable::fmt(static_cast<double>(result.nvm_writes().total()) /
                              static_cast<double>(result.accesses),
                          3)});
    }
    std::cout << table.to_string() << '\n';
  }
  return sweep.failures() == 0 ? 0 : 1;
}
