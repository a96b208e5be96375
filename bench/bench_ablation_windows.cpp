// Ablation A7: the counter windows — the design choice Section IV spends
// most of its space on. Sweeping readperc/writeperc from whole-queue
// counters (1.0/1.0, i.e. no reset-based filtering: the naive scheme whose
// two failure modes the paper describes) down to narrow windows shows how
// the windowing suppresses non-beneficial migrations on churny workloads.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);
  bench::print_header("Ablation — counter window fractions", ctx);

  std::vector<synth::WorkloadProfile> workloads;
  for (const char* name : {"canneal", "raytrace", "facesim"}) {
    workloads.push_back(synth::parsec_profile(name));
  }
  struct Windows {
    double read, write;
  };
  std::vector<runner::ConfigVariant> variants;
  for (const Windows w : {Windows{0.02, 0.06}, Windows{0.05, 0.15},
                          Windows{0.10, 0.30}, Windows{0.25, 0.50},
                          Windows{0.50, 0.75}, Windows{1.00, 1.00}}) {
    runner::ConfigVariant variant;
    variant.label = "windows=" + TextTable::fmt(w.read, 2) + "/" +
                    TextTable::fmt(w.write, 2);
    variant.config.migration.read_perc = w.read;
    variant.config.migration.write_perc = w.write;
    variants.push_back(std::move(variant));
  }
  const auto sweep = bench::run_grid(workloads, {"two-lru"}, ctx, variants);
  if (sweep.failures() != 0) return 1;

  // Grid order is workload-major, so each workload owns one contiguous
  // chunk of |variants| result slots.
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::cout << "--- " << workloads[w].name << " ---\n";
    TextTable table({"read_perc", "write_perc", "promotions/kacc",
                     "APPR (nJ)", "AMAT (ns)"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const auto& r = sweep.jobs[w * variants.size() + v].result;
      const auto& migration = variants[v].config.migration;
      table.add_row(
          {TextTable::fmt(migration.read_perc, 2),
           TextTable::fmt(migration.write_perc, 2),
           TextTable::fmt(
               1000.0 * static_cast<double>(r.counts.migrations_to_dram) /
                   static_cast<double>(r.accesses),
               2),
           TextTable::fmt(r.appr().total(), 2),
           TextTable::fmt(r.amat().total(), 1)});
    }
    std::cout << table.to_string() << '\n';
  }
  std::cout << "Whole-queue counters (1.00/1.00) never reset, so"
               " long-resident cold pages\neventually cross any threshold —"
               " the paper's first failure mode.\n";
  return 0;
}
