// Table II substrate check: drives multi-core CPU streams through the
// Table II cache hierarchy (the COTSon stand-in) and reports the achieved
// geometry, hit ratios, coherence traffic and memory filter rate, then runs
// the filtered trace through the hybrid memory end to end.
#include <iostream>

#include "bench_common.hpp"
#include "cachesim/hierarchy.hpp"
#include "synth/cpu_stream.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/1,
                                     bench::SharedFlags::kTrace);
  bench::print_header("Table II — cache hierarchy substrate (COTSon stand-in)",
                      ctx);

  const cachesim::HierarchyConfig config;  // Table II defaults
  std::cout << "Configured geometry: " << config.cores << " cores, L1D "
            << config.l1d.size_bytes / 1024 << "KB/" << config.l1d.associativity
            << "-way, LLC " << config.llc.size_bytes / 1024 / 1024 << "MB/"
            << config.llc.associativity << "-way, " << config.llc.line_size
            << "B lines\n\n";

  TextTable table({"stream", "cpu accesses", "L1 hit%", "LLC hit%",
                   "invalidations", "interventions", "mem reads", "mem writes",
                   "filter%"});
  struct Scenario {
    const char* name;
    double shared;
    double run_continue;
    std::uint64_t private_bytes;
  };
  for (const Scenario& s :
       {Scenario{"private-sequential", 0.0, 0.9, 8u << 20},
        Scenario{"private-random", 0.0, 0.2, 16u << 20},
        Scenario{"shared-heavy", 0.4, 0.6, 8u << 20},
        Scenario{"llc-resident", 0.1, 0.7, 256u << 10}}) {
    synth::CpuStreamOptions opts;
    opts.cores = config.cores;
    opts.accesses_per_core = 250000 / ctx.scale + 1000;
    opts.shared_fraction = s.shared;
    opts.run_continue = s.run_continue;
    opts.private_bytes = s.private_bytes;
    opts.seed = ctx.seed;
    const auto cpu = synth::generate_cpu_stream(opts);
    cachesim::HierarchyStats stats;
    cachesim::Hierarchy::filter(cpu, config, &stats);
    table.add_row({s.name, std::to_string(stats.accesses),
                   TextTable::fmt(100.0 * stats.l1_hit_ratio(), 1),
                   TextTable::fmt(100.0 * stats.llc_hit_ratio(), 1),
                   std::to_string(stats.invalidations),
                   std::to_string(stats.interventions),
                   std::to_string(stats.memory_reads),
                   std::to_string(stats.memory_writes),
                   TextTable::fmt(100.0 * stats.memory_filter_ratio(), 2)});
  }
  std::cout << table.to_string();
  return 0;
}
