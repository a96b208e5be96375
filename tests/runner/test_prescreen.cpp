#include "runner/prescreen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "synth/workload_profile.hpp"

namespace hymem::runner {
namespace {

// One workload, a supported and an unsupported policy, and sizing variants
// far enough apart that the simulated AMAT ranking is unambiguous.
SweepSpec screen_spec() {
  SweepSpec spec;
  spec.workloads = {synth::parsec_profile("canneal")};
  spec.policies = {"two-lru", "two-lru-adaptive"};
  for (const double memory_fraction : {0.40, 0.60, 0.75, 0.95}) {
    ConfigVariant variant;
    variant.label = "mem" + std::to_string(memory_fraction);
    variant.config.memory_fraction = memory_fraction;
    spec.variants.push_back(variant);
  }
  spec.scale = 512;
  spec.base_seed = 42;
  return spec;
}

std::string serialize(const SweepResults& sweep) {
  std::ostringstream csv;
  sweep.write_csv(csv);
  std::ostringstream json;
  sweep.write_json(json);
  return csv.str() + json.str();
}

TEST(Prescreen, SelectionMirrorsAnalyticSupport) {
  PrescreenOptions options;
  options.refine_top = 0;  // keep everything
  options.run.jobs = 1;
  const PrescreenResults screened =
      run_prescreened_sweep(screen_spec(), options);
  ASSERT_EQ(screened.screen.size(), 8u);
  ASSERT_EQ(screened.sweep.jobs.size(), 8u);
  for (const ScreenedJob& job : screened.screen) {
    const auto& config = screened.sweep.jobs[job.index].job.config;
    EXPECT_EQ(job.analytic, sim::analytic_supported(config));
    EXPECT_TRUE(job.selected);  // refine_top 0 simulates everything
  }
  EXPECT_EQ(screened.simulated, 8u);
  EXPECT_EQ(screened.sweep.skipped(), 0u);
  EXPECT_EQ(screened.analytic_evals, 4u);  // the two-lru cells
}

TEST(Prescreen, RefineTopSimulatesOnlyTheBestSupportedCells) {
  PrescreenOptions options;
  options.refine_top = 2;
  options.run.jobs = 1;
  const PrescreenResults screened =
      run_prescreened_sweep(screen_spec(), options);
  // 2 refined two-lru cells + 4 always-simulated adaptive cells.
  EXPECT_EQ(screened.simulated, 6u);
  EXPECT_EQ(screened.sweep.skipped(), 2u);
  EXPECT_EQ(screened.sweep.failures(), 0u);
  for (const ScreenedJob& job : screened.screen) {
    const auto& slot = screened.sweep.jobs[job.index];
    if (!job.analytic) {
      EXPECT_TRUE(job.selected) << "unsupported cells are always simulated";
    }
    EXPECT_EQ(slot.skipped, !job.selected);
    EXPECT_EQ(slot.ok, job.selected);
  }
  // Skipped rows export as status "skipped", not as failures.
  std::ostringstream csv;
  screened.sweep.write_csv(csv);
  EXPECT_NE(csv.str().find(",skipped,"), std::string::npos);
}

TEST(Prescreen, RecoversTheTrueBestSimulatedCell) {
  const SweepSpec spec = screen_spec();
  // Exhaustive reference: simulate the whole grid, find the supported cell
  // with the lowest simulated AMAT.
  const SweepResults exhaustive = run_sweep(spec, {});
  std::size_t best = 0;
  double best_amat = std::numeric_limits<double>::infinity();
  for (const JobResult& job : exhaustive.jobs) {
    if (!job.ok || !sim::analytic_supported(job.job.config)) continue;
    const double amat = job.result.amat().total();
    if (amat < best_amat) {
      best_amat = amat;
      best = job.job.index;
    }
  }
  ASSERT_LT(best_amat, std::numeric_limits<double>::infinity());

  PrescreenOptions options;
  options.refine_top = 2;
  options.run.jobs = 1;
  const PrescreenResults screened = run_prescreened_sweep(spec, options);
  EXPECT_TRUE(screened.screen[best].selected)
      << "the analytically ranked top-2 must contain the true best cell";
  // And the refined cells reproduce the exhaustive numbers exactly: the
  // prescreen only prunes, it never perturbs a simulation.
  for (const ScreenedJob& job : screened.screen) {
    if (!job.selected) continue;
    EXPECT_DOUBLE_EQ(screened.sweep.jobs[job.index].result.amat().total(),
                     exhaustive.jobs[job.index].result.amat().total());
  }
}

// Two workloads of three supported cells each: the ranking is per
// workload, so refine_top 1 keeps each workload's lowest prediction, not
// the grid's single lowest.
TEST(Prescreen, RefineTopKeepsTheBestCellsOfEachWorkload) {
  SweepSpec spec;
  spec.workloads = {synth::parsec_profile("canneal"),
                    synth::parsec_profile("streamcluster")};
  spec.policies = {"dram-only", "nvm-only", "two-lru"};
  spec.scale = 512;
  spec.base_seed = 42;
  PrescreenOptions options;
  options.refine_top = 1;
  options.run.jobs = 1;
  const PrescreenResults screened = run_prescreened_sweep(spec, options);
  ASSERT_EQ(screened.screen.size(), 6u);
  EXPECT_EQ(screened.simulated, 2u);
  for (const std::string workload : {"canneal", "streamcluster"}) {
    std::size_t selected = 0;
    std::size_t best = 0;
    double best_amat = std::numeric_limits<double>::infinity();
    for (const ScreenedJob& job : screened.screen) {
      if (screened.sweep.jobs[job.index].job.workload.name != workload) {
        continue;
      }
      ASSERT_TRUE(job.analytic);
      if (job.selected) ++selected;
      if (job.predicted_amat_ns < best_amat) {
        best_amat = job.predicted_amat_ns;
        best = job.index;
      }
    }
    EXPECT_EQ(selected, 1u) << workload;
    EXPECT_TRUE(screened.screen[best].selected) << workload;
  }
}

TEST(Prescreen, OutputIsByteIdenticalForAnyWorkerCount) {
  const SweepSpec spec = screen_spec();
  PrescreenOptions serial;
  serial.refine_top = 2;
  serial.run.jobs = 1;
  PrescreenOptions threaded;
  threaded.refine_top = 2;
  threaded.run.jobs = 4;
  const PrescreenResults a = run_prescreened_sweep(spec, serial);
  const PrescreenResults b = run_prescreened_sweep(spec, threaded);
  EXPECT_EQ(serialize(a.sweep), serialize(b.sweep));
  ASSERT_EQ(a.screen.size(), b.screen.size());
  for (std::size_t i = 0; i < a.screen.size(); ++i) {
    EXPECT_EQ(a.screen[i].selected, b.screen[i].selected);
    EXPECT_EQ(a.screen[i].predicted_amat_ns, b.screen[i].predicted_amat_ns);
  }
}

TEST(Prescreen, CharacterizationIsSharedAcrossTheGrid) {
  // 8 cells, one workload/seed/page-size: the ranking pass must cost one
  // characterization and one estimate per supported cell. The >= 1000/s
  // throughput floor is PrescreenFloor.AnalyticThroughputAtLeast1000PerSecond
  // (test_floors), kept out of sanitizer builds.
  PrescreenOptions options;
  options.refine_top = 1;
  options.run.jobs = 1;
  const PrescreenResults screened =
      run_prescreened_sweep(screen_spec(), options);
  EXPECT_EQ(screened.analytic_evals, 4u);
  EXPECT_GT(screened.analytic_seconds, 0.0);
}

}  // namespace
}  // namespace hymem::runner
