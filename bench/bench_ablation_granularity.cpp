// Ablation A3: migration granularity (the paper's motivation item (c)).
//
// PageFactor = page_size / access_granularity converts one page move into
// device accesses; doubling the page size doubles every migration's cost.
// This sweep quantifies how granularity shifts the migrate-vs-stay
// trade-off the thresholds must navigate.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);
  bench::print_header("Ablation — page size / migration granularity", ctx);

  const std::vector<std::string> policies = {"two-lru", "clock-dwf"};
  std::vector<runner::ConfigVariant> variants;
  for (const std::uint64_t page_size :
       {1024ULL, 2048ULL, 4096ULL, 8192ULL, 16384ULL}) {
    runner::ConfigVariant variant;
    variant.label = "page=" + std::to_string(page_size / 1024) + "KB";
    variant.config.page_size = page_size;
    variants.push_back(std::move(variant));
  }
  const auto sweep = bench::run_grid({synth::parsec_profile("facesim")},
                                     policies, ctx, variants);
  if (sweep.failures() != 0) return 1;

  // One workload, so policy p's page-size sweep occupies slots
  // [p*|variants|, (p+1)*|variants|).
  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::cout << "--- " << policies[p] << " on facesim ---\n";
    TextTable table({"page size", "PageFactor", "APPR (nJ)",
                     "migration (nJ)", "AMAT (ns)", "migrations/kacc"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const auto& result = sweep.jobs[p * variants.size() + v].result;
      const auto power = result.appr();
      table.add_row(
          {std::to_string(variants[v].config.page_size / 1024) + "KB",
           std::to_string(result.counts.page_factor),
           TextTable::fmt(power.total(), 2),
           TextTable::fmt(power.migration_nj, 2),
           TextTable::fmt(result.amat().total(), 1),
           TextTable::fmt(1000.0 *
                              static_cast<double>(result.counts.migrations()) /
                              static_cast<double>(result.accesses),
                          2)});
    }
    std::cout << table.to_string() << '\n';
  }
  return 0;
}
