// Ablation A11: total memory size. The paper fixes memory = 75% of each
// workload's footprint (following CLOCK-DWF); this sweep shows how the
// hybrid advantage moves as memory pressure changes: at 100% the fault/
// demotion machinery goes quiet and static power decides everything; below
// ~60% capacity misses (and the demotion each one forces) start to bury the
// threshold scheme's savings.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);
  bench::print_header("Ablation — total memory as a fraction of footprint",
                      ctx);

  const std::vector<synth::WorkloadProfile> workloads = {
      synth::parsec_profile("facesim"), synth::parsec_profile("canneal")};
  // The dram-only baseline first, then the two hybrids it normalizes.
  const std::vector<std::string> policies = {"dram-only", "clock-dwf",
                                             "two-lru"};
  const std::vector<double> fractions = {0.55, 0.65, 0.75, 0.85, 0.95};
  std::vector<runner::ConfigVariant> variants;
  for (const double fraction : fractions) {
    runner::ConfigVariant variant;
    variant.label = "memory=" + TextTable::fmt(100 * fraction, 0) + "%";
    variant.config.memory_fraction = fraction;
    variants.push_back(std::move(variant));
  }
  const auto sweep = bench::run_grid(workloads, policies, ctx, variants);
  if (sweep.failures() != 0) return 1;

  // Grid order is workload-major, then policy, then fraction.
  const auto at = [&](std::size_t w, std::size_t p,
                      std::size_t f) -> const sim::RunResult& {
    return sweep.jobs[(w * policies.size() + p) * fractions.size() + f]
        .result;
  };
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::cout << "--- " << workloads[w].name << " ---\n";
    TextTable table({"memory%", "policy", "miss/kacc", "APPR (nJ)",
                     "AMAT (ns)", "vs dram-only power"});
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      const double dram_only = at(w, 0, f).appr().total();
      for (std::size_t p = 1; p < policies.size(); ++p) {
        const auto& r = at(w, p, f);
        table.add_row(
            {TextTable::fmt(100 * fractions[f], 0), policies[p],
             TextTable::fmt(1000.0 *
                                static_cast<double>(r.counts.page_faults) /
                                static_cast<double>(r.accesses),
                            3),
             TextTable::fmt(r.appr().total(), 2),
             TextTable::fmt(r.amat().total(), 1),
             TextTable::fmt(r.appr().total() / dram_only, 3)});
      }
    }
    std::cout << table.to_string() << '\n';
  }
  return 0;
}
