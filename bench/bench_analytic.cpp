// Analytic fast path vs. exhaustive simulation: every cell of a two-LRU
// threshold/window grid is both estimated in closed form (model/analytic,
// microseconds per cell) and fully simulated, then compared — per-cell
// prediction error and, the headline, the *frontier* question: does ranking
// by predicted AMAT recover the cells the simulator ranks best? That
// recovery rate is what licenses `bench_sweep --prescreen analytic`.
//
//   $ bench_analytic [--scale 512] [--seed 42] [--jobs N]
//
// Emits the "analytic-frontier" CSV (see sim/figure_schemas) on stdout: one
// row per (workload, grid cell) with predicted/simulated AMAT and hit
// ratio, both rank columns (1 = best within the workload) and whether the
// cell sits in both top-3 sets. Stdout is byte-identical for every --jobs
// value (ranking happens in-process before any job is dispatched). The
// stderr summary reports analytic throughput and top-3 recovery per
// workload.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runner/prescreen.hpp"
#include "sim/figure_schemas.hpp"
#include "util/csv.hpp"

using namespace hymem;

namespace {

constexpr std::size_t kTopP = 3;

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/512,
                                     bench::SharedFlags::kJobs);

  const std::vector<synth::WorkloadProfile> workloads = {
      synth::parsec_profile("canneal"), synth::parsec_profile("streamcluster")};

  // The Table III-style grid: thresholds bracketing the Section IV defaults
  // crossed with two window geometries.
  struct Point {
    std::uint64_t read_t, write_t;
    double read_p, write_p;
  };
  const std::vector<Point> points = {
      {2, 4, 0.10, 0.30},  {8, 12, 0.10, 0.30}, {16, 24, 0.10, 0.30},
      {2, 4, 0.20, 0.50},  {8, 12, 0.20, 0.50}, {16, 24, 0.20, 0.50},
  };
  std::vector<runner::ConfigVariant> variants;
  for (const Point& pt : points) {
    runner::ConfigVariant variant;
    std::ostringstream label;
    label << "t" << pt.read_t << "-" << pt.write_t << "-w" << pt.read_p
          << "-" << pt.write_p;
    variant.label = label.str();
    variant.config.migration.read_threshold = pt.read_t;
    variant.config.migration.write_threshold = pt.write_t;
    variant.config.migration.read_perc = pt.read_p;
    variant.config.migration.write_perc = pt.write_p;
    variants.push_back(std::move(variant));
  }

  runner::SweepSpec spec;
  spec.workloads = workloads;
  spec.policies = {"two-lru"};
  spec.variants = std::move(variants);
  spec.scale = ctx.scale;
  spec.base_seed = ctx.seed;
  spec.seed_mode = runner::SeedMode::kShared;

  // refine_top 0: estimate AND simulate every cell — the comparison needs
  // both sides everywhere.
  runner::PrescreenOptions options;
  options.run.jobs = ctx.jobs;
  options.run.progress = runner::stderr_progress();
  const auto screened = runner::run_prescreened_sweep(spec, options);

  // Per-workload ranks (grid order is workload-major, one policy, so the
  // cells of workload w occupy [w*V, (w+1)*V)).
  const std::size_t cells = spec.variants.size();
  const auto rank_of = [&](std::size_t w, auto score) {
    // 1-based rank of each cell within its workload under `score`.
    std::vector<std::size_t> order(cells);
    for (std::size_t v = 0; v < cells; ++v) order[v] = w * cells + v;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double sa = score(a);
      const double sb = score(b);
      return sa != sb ? sa < sb : a < b;
    });
    std::vector<std::size_t> rank(cells, 0);
    for (std::size_t r = 0; r < order.size(); ++r) {
      rank[order[r] - w * cells] = r + 1;
    }
    return rank;
  };

  CsvWriter csv(std::cout);
  csv.write_row(sim::table_schema("analytic-frontier").columns);
  std::vector<std::size_t> recovered(workloads.size(), 0);
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const auto predicted_rank = rank_of(w, [&](std::size_t i) {
      return screened.screen[i].predicted_amat_ns;
    });
    const auto simulated_rank = rank_of(w, [&](std::size_t i) {
      const auto& job = screened.sweep.jobs[i];
      return job.ok ? job.result.amat().total()
                    : std::numeric_limits<double>::infinity();
    });
    for (std::size_t v = 0; v < cells; ++v) {
      const auto& slot = screened.sweep.jobs[w * cells + v];
      if (!slot.ok) continue;
      const auto& mig = slot.job.config.migration;
      const double predicted = screened.screen[w * cells + v].predicted_amat_ns;
      const double simulated = slot.result.amat().total();
      const bool in_both =
          predicted_rank[v] <= kTopP && simulated_rank[v] <= kTopP;
      if (in_both) ++recovered[w];
      const auto& estimate = screened.screen[w * cells + v].estimate;
      const auto sim_probs = model::probabilities(slot.result.counts);
      csv.write_row(
          {slot.job.workload.name, slot.job.policy, slot.job.variant,
           std::to_string(mig.read_threshold),
           std::to_string(mig.write_threshold), fmt_double(mig.read_perc),
           fmt_double(mig.write_perc), fmt_double(predicted),
           fmt_double(simulated),
           fmt_double(simulated > 0.0
                          ? std::abs(predicted - simulated) / simulated
                          : 0.0),
           fmt_double(estimate.hit_ratio),
           fmt_double(sim_probs.hit_dram + sim_probs.hit_nvm),
           std::to_string(predicted_rank[v]),
           std::to_string(simulated_rank[v]), in_both ? "1" : "0"});
    }
  }

  std::cerr << "analytic-frontier: " << screened.analytic_evals
            << " estimates ("
            << static_cast<std::uint64_t>(screened.analytic_evals_per_second())
            << "/s), " << screened.simulated << " simulations\n";
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::cerr << "  " << workloads[w].name << ": top-" << kTopP
              << " recovery " << recovered[w] << "/" << kTopP << "\n";
  }
  return screened.sweep.failures() == 0 ? 0 : 1;
}
