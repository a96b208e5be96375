// Table III: workload characterization — regenerated from the synthetic
// traces themselves (not echoed from the profiles): each trace is generated,
// then measured with the characterization tooling. At scale 1 the numbers
// equal the paper's Table III exactly; at scale N all counts divide by N
// with identical ratios.
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "sim/figure_schemas.hpp"
#include "synth/generator.hpp"
#include "trace/trace_stats.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/64,
                                     bench::SharedFlags::kTrace);
  bench::print_header("Table III — workload characterization (measured)", ctx);

  TextTable table(sim::table_schema("table3").columns);
  for (const auto& base : synth::parsec_profiles()) {
    const auto profile = base.scaled(ctx.scale);
    synth::GeneratorOptions options;
    options.seed = ctx.seed;
    const auto trace = synth::generate(profile, options);
    const auto stats = trace::characterize(trace, options.page_size);
    table.add_row({profile.name, std::to_string(stats.working_set_kb()),
                   std::to_string(stats.reads), std::to_string(stats.writes),
                   TextTable::fmt(100.0 * stats.read_fraction(), 1),
                   TextTable::fmt(100.0 * stats.write_fraction(), 1),
                   std::to_string(stats.write_dominant_pages)});
    // Cross-check: the measured trace must match the profile's targets.
    if (stats.reads != profile.reads || stats.writes != profile.writes ||
        stats.distinct_pages != profile.footprint_pages(4096)) {
      std::cerr << "MISMATCH for " << profile.name << "\n";
      return 1;
    }
  }
  std::cout << table.to_string();
  std::cout << "\nAll measured columns match the scaled Table III targets.\n";
  return 0;
}
