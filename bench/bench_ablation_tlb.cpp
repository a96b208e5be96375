// Ablation A10: TLB sensitivity — a cost the paper's model ignores.
//
// Every migration is a page-table remap and costs a TLB shootdown
// (~a few microseconds of IPI + refill on real hardware); every access pays
// a page-walk on a TLB miss. This harness replays each workload's page
// stream through a 64-entry DTLB, counts shootdowns from the measured
// migration rate, and reports how much the Eq. 1 AMAT would grow — i.e.
// whether ignoring the TLB changes the paper's conclusions (it does not:
// the proposed scheme migrates least, so it is penalized least).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "os/tlb.hpp"
#include "synth/generator.hpp"
#include "trace/access.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);
  bench::print_header("Ablation — TLB shootdown / page-walk sensitivity", ctx);

  constexpr Nanoseconds kWalkNs = 80;        // page-walk on TLB miss
  constexpr Nanoseconds kShootdownNs = 4000; // IPI + remote invalidations

  const std::vector<synth::WorkloadProfile> workloads = {
      synth::parsec_profile("facesim"), synth::parsec_profile("ferret"),
      synth::parsec_profile("raytrace")};
  const std::vector<std::string> policies = {"clock-dwf", "two-lru"};
  const auto sweep = bench::run_grid(workloads, policies, ctx);
  if (sweep.failures() != 0) return 1;

  TextTable table({"workload", "policy", "TLB hit%", "AMAT (ns)",
                   "walk add (ns)", "shootdown add (ns)", "AMAT+TLB (ns)"});
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const auto profile = workloads[w].scaled(ctx.scale);
    synth::GeneratorOptions options;
    options.seed = ctx.seed;
    options.ensure_full_footprint = false;  // match the measured pass
    options.seed = ctx.seed + 1;
    const auto trace = synth::generate(profile, options);
    os::Tlb tlb;
    for (const auto& a : trace) tlb.lookup(trace::page_of(a.addr, 4096));

    // Grid order is workload-major: workload w's runs sit at slots
    // [w*|policies|, (w+1)*|policies|).
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const auto& r = sweep.jobs[w * policies.size() + p].result;
      const double walk_add = (1.0 - tlb.stats().hit_ratio()) * kWalkNs;
      const double shootdown_add =
          static_cast<double>(r.counts.migrations()) /
          static_cast<double>(r.accesses) * kShootdownNs;
      table.add_row({workloads[w].name, policies[p],
                     TextTable::fmt(100.0 * tlb.stats().hit_ratio(), 2),
                     TextTable::fmt(r.amat().total(), 1),
                     TextTable::fmt(walk_add, 2),
                     TextTable::fmt(shootdown_add, 2),
                     TextTable::fmt(r.amat().total() + walk_add + shootdown_add,
                                    1)});
    }
  }
  std::cout << table.to_string();
  return 0;
}
