// Sampled-hotness frontier: how much AMAT/endurance the deployable
// sampled-lru policy gives up, versus the omniscient two-LRU scheme and
// CLOCK-DWF, as a function of its three overhead knobs — sample period
// (how much of the access stream the OS sees), ring depth (staging memory
// for candidates) and migration budget (background bandwidth).
//
//   $ bench_sampled_frontier [--scale 128] [--seed 42] [--jobs N]
//
// Emits the "sampled-frontier" CSV (see sim/figure_schemas) on stdout:
// one row per baseline (two-lru, clock-dwf) per workload, then one row per
// sampled-lru configuration, with amat_vs_two_lru normalizing each row to
// the same workload's omniscient two-LRU run. Stdout is byte-identical for
// every --jobs value (virtual-time migrator + sweep determinism contract).
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/figure_schemas.hpp"
#include "util/csv.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);

  std::vector<synth::WorkloadProfile> workloads = {
      synth::parsec_profile("canneal"), synth::parsec_profile("streamcluster")};

  // The frontier grid: sample period x ring depth x migration budget
  // (0 = unlimited). drain_period stays at its default so the budget axis
  // is rate-per-fixed-window.
  const std::vector<std::uint64_t> periods = {4, 16, 64};
  const std::vector<std::uint64_t> rings = {64, 256};
  const std::vector<std::uint64_t> budgets = {8, 64, 0};
  std::vector<runner::ConfigVariant> variants;
  for (const std::uint64_t period : periods) {
    for (const std::uint64_t ring : rings) {
      for (const std::uint64_t budget : budgets) {
        runner::ConfigVariant variant;
        std::ostringstream label;
        label << "p" << period << "-r" << ring << "-m" << budget;
        variant.label = label.str();
        variant.config.sample.sample_period = period;
        variant.config.sample.ring_capacity = ring;
        variant.config.sample.migration_budget = budget;
        variants.push_back(std::move(variant));
      }
    }
  }

  const std::vector<std::string> baseline_policies = {"two-lru", "clock-dwf"};
  const auto baselines = bench::run_grid(workloads, baseline_policies, ctx);
  const auto sampled = bench::run_grid(workloads, {"sampled-lru"}, ctx,
                                       variants);

  // Grid order is workload-major: baseline job (w, p) sits at
  // w * |policies| + p, sampled job (w, v) at w * |variants| + v.
  std::vector<double> two_lru_amat(workloads.size(), 0.0);
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const auto& job = baselines.jobs[w * baseline_policies.size()];
    if (job.ok) two_lru_amat[w] = job.result.amat().total();
  }
  const auto ratio = [&](std::size_t w, double amat) {
    return two_lru_amat[w] > 0.0 ? amat / two_lru_amat[w] : 0.0;
  };

  CsvWriter csv(std::cout);
  csv.write_row(sim::table_schema("sampled-frontier").columns);
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t p = 0; p < baseline_policies.size(); ++p) {
      const auto& job = baselines.jobs[w * baseline_policies.size() + p];
      if (!job.ok) continue;
      const auto& result = job.result;
      // Baselines have no sampling knobs: the config columns read 0 and
      // the migration counts come from the VMM event ledger.
      csv.write_row({job.job.workload.name, job.job.policy, "omniscient",
                     "0", "0", "0", "0", fmt_double(result.amat().total()),
                     fmt_double(ratio(w, result.amat().total())),
                     fmt_double(result.appr().total()),
                     u64(result.nvm_writes().total()),
                     u64(result.counts.migrations_to_dram),
                     u64(result.counts.migrations_to_nvm), "0", "0"});
    }
  }
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const auto& job = sampled.jobs[w * variants.size() + v];
      if (!job.ok) continue;
      const auto& result = job.result;
      const auto& scfg = job.job.config.sample;
      csv.write_row({job.job.workload.name, job.job.policy, job.job.variant,
                     u64(scfg.sample_period), u64(scfg.ring_capacity),
                     u64(scfg.migration_budget), u64(scfg.drain_period),
                     fmt_double(result.amat().total()),
                     fmt_double(ratio(w, result.amat().total())),
                     fmt_double(result.appr().total()),
                     u64(result.nvm_writes().total()),
                     u64(result.sampled.promotions),
                     u64(result.sampled.demotions),
                     u64(result.sampled.sample_drops),
                     u64(result.sampled.backlog)});
    }
  }

  std::cerr << "sampled-frontier: " << baselines.jobs.size() << " baseline + "
            << sampled.jobs.size() << " sampled jobs, " << sampled.workers
            << " worker(s), " << (baselines.wall_s + sampled.wall_s) << " s\n";
  return baselines.failures() + sampled.failures() == 0 ? 0 : 1;
}
