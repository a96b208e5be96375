// Ablation A2: DRAM share of the hybrid memory (the paper fixes 10%
// following CLOCK-DWF; this sweep shows what that choice costs/buys).
// Larger DRAM shares soak up more of the hot set (fewer migrations, lower
// AMAT) but forfeit the static-power savings that motivate the hybrid.
// Both the dram-only baselines and the (workload × fraction) sweep fan
// out over `--jobs` workers.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);
  bench::print_header("Ablation — DRAM fraction of hybrid memory", ctx);

  const std::vector<double> fractions = {0.05, 0.10, 0.20, 0.30, 0.50};
  std::vector<runner::ConfigVariant> variants;
  for (const double fraction : fractions) {
    runner::ConfigVariant variant;
    variant.label = "dram=" + TextTable::fmt(100 * fraction, 0) + "%";
    variant.config.dram_fraction = fraction;
    variants.push_back(std::move(variant));
  }

  std::vector<synth::WorkloadProfile> workloads;
  for (const char* name : {"facesim", "ferret", "canneal"}) {
    workloads.push_back(synth::parsec_profile(name));
  }

  const auto baselines = bench::run_grid(workloads, {"dram-only"}, ctx);
  const auto sweep = bench::run_grid(workloads, {"two-lru"}, ctx, variants);

  // Grid order is workload-major: baseline w sits at slot w, and workload
  // w's fraction sweep occupies slots [w*|fractions|, (w+1)*|fractions|).
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::cout << "--- " << workloads[w].name << " ---\n";
    TextTable table({"dram%", "APPR (nJ)", "static (nJ)", "migration (nJ)",
                     "AMAT (ns)", "vs dram-only power"});
    if (!baselines.jobs[w].ok) continue;
    const double dram_only = baselines.jobs[w].result.appr().total();
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      const auto& job = sweep.jobs[w * fractions.size() + f];
      if (!job.ok) continue;
      const auto& result = job.result;
      const auto power = result.appr();
      table.add_row({TextTable::fmt(100 * fractions[f], 0),
                     TextTable::fmt(power.total(), 2),
                     TextTable::fmt(power.static_nj, 2),
                     TextTable::fmt(power.migration_nj, 2),
                     TextTable::fmt(result.amat().total(), 1),
                     TextTable::fmt(power.total() / dram_only, 3)});
    }
    std::cout << table.to_string() << '\n';
  }
  return baselines.failures() + sweep.failures() == 0 ? 0 : 1;
}
