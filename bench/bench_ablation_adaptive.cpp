// Ablation A4: adaptive thresholds — the extension the paper flags as
// ongoing research ("using adaptive threshold prediction can further
// improve the efficiency"), motivated by raytrace whose optimal thresholds
// differ from the other workloads'.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/migration_scheme.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);
  bench::print_header("Ablation — fixed vs adaptive migration thresholds",
                      ctx);

  const auto profiles = synth::parsec_profiles();
  const auto sweep = bench::run_grid({profiles.begin(), profiles.end()},
                                     {"two-lru", "two-lru-adaptive"}, ctx);
  if (sweep.failures() != 0) return 1;

  TextTable table({"workload", "fixed APPR", "adaptive APPR", "fixed AMAT",
                   "adaptive AMAT", "fixed mig/kacc", "adaptive mig/kacc"});
  double fixed_power_gm = 0, adaptive_power_gm = 0;
  int n = 0;
  // Grid order is workload-major: workload w's fixed run sits at slot 2w
  // and its adaptive run at 2w + 1.
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    const auto& fixed = sweep.jobs[2 * w].result;
    const auto& adaptive = sweep.jobs[2 * w + 1].result;
    auto per_kacc = [](const sim::RunResult& r) {
      return 1000.0 * static_cast<double>(r.counts.migrations()) /
             static_cast<double>(r.accesses);
    };
    table.add_row({profiles[w].name, TextTable::fmt(fixed.appr().total(), 2),
                   TextTable::fmt(adaptive.appr().total(), 2),
                   TextTable::fmt(fixed.amat().total(), 1),
                   TextTable::fmt(adaptive.amat().total(), 1),
                   TextTable::fmt(per_kacc(fixed), 2),
                   TextTable::fmt(per_kacc(adaptive), 2)});
    fixed_power_gm += std::log(fixed.appr().total());
    adaptive_power_gm += std::log(adaptive.appr().total());
    ++n;
  }
  std::cout << table.to_string();
  std::cout << "\nG-Mean APPR: fixed " << std::exp(fixed_power_gm / n)
            << " nJ, adaptive " << std::exp(adaptive_power_gm / n) << " nJ\n";
  return 0;
}
