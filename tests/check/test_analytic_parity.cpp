#include "check/analytic_parity.hpp"

#include <gtest/gtest.h>

namespace hymem::check {
namespace {

// Pinned tolerances for the default parity grid (2 workloads x 8 seeds x 6
// cells). The values are the measured worst-case errors plus margin — see
// DESIGN.md §13 for the calibration table and where each error comes from.
// Probability metrics are absolute error, cost metrics relative error.
//
// hit_ratio / miss are near-exact (global-LRU assumption; ~6e-4 measured).
// The tier split carries the iid-gap approximation: fault events are
// dominated by cold pages, so the unconditional burst model overestimates
// PHitDRAM at high thresholds (0.29 measured worst).
constexpr double kTolHitRatio = 0.005;
constexpr double kTolMiss = 0.005;
constexpr double kTolHitDram = 0.35;
constexpr double kTolAmat = 0.45;
constexpr double kTolAppr = 0.45;
constexpr double kTolNvmWrites = 0.95;

// One full default-grid run shared by the assertions below (each run costs
// 96 simulations).
const ParityReport& default_report() {
  static const ParityReport report = run_analytic_parity(ParitySpec{});
  return report;
}

// A small spec for the mutation checks: one workload, two seeds, the
// default two-LRU cell. Each mutation run re-simulates these cells.
ParitySpec reduced_spec() {
  ParitySpec spec;
  spec.workloads = {"canneal"};
  spec.seeds = {1, 2};
  sim::ExperimentConfig cell;
  cell.policy = "two-lru";
  spec.cells = {cell};
  return spec;
}

TEST(AnalyticParity, DefaultGridWithinPinnedTolerances) {
  const ParityReport& report = default_report();
  ASSERT_EQ(report.cells.size(), 2u * 8u * 6u);
  EXPECT_LE(report.worst.hit_ratio, kTolHitRatio);
  EXPECT_LE(report.worst.miss, kTolMiss);
  EXPECT_LE(report.worst.hit_dram, kTolHitDram);
  EXPECT_LE(report.worst.amat, kTolAmat);
  EXPECT_LE(report.worst.appr, kTolAppr);
  EXPECT_LE(report.worst.nvm_writes, kTolNvmWrites);
}

TEST(AnalyticParity, SingleTierCellsAreExact) {
  // The degenerate configs exercise no approximation: plain LRU hit ratio
  // is the reuse-distance CDF, so every metric must agree to round-off.
  // This is the canary separating "model approximation error" from "profile
  // or plumbing bug" — a miscounted cold access shows up here first.
  int single_tier_cells = 0;
  for (const ParityCell& cell : default_report().cells) {
    if (cell.policy != "dram-only" && cell.policy != "nvm-only") continue;
    ++single_tier_cells;
    EXPECT_LE(cell.errors.hit_ratio, 1e-9) << cell.policy;
    EXPECT_LE(cell.errors.hit_dram, 1e-9) << cell.policy;
    EXPECT_LE(cell.errors.miss, 1e-9) << cell.policy;
    EXPECT_LE(cell.errors.amat, 1e-9) << cell.policy;
    EXPECT_LE(cell.errors.appr, 1e-9) << cell.policy;
    EXPECT_LE(cell.errors.nvm_writes, 1e-9) << cell.policy;
  }
  EXPECT_EQ(single_tier_cells, 2 * 8 * 2);
}

// The report measures the analytic throughput over its cells. The >= 1000/s
// floor on it is AnalyticParityFloor.AnalyticThroughputAtLeast1000PerSecond
// (test_floors), kept out of sanitizer builds.
TEST(AnalyticParity, AnalyticThroughputClearsPrescreenFloor) {
  EXPECT_GT(default_report().analytic_evals_per_second, 0.0);
}

TEST(AnalyticParity, EveryPredictionIsConsistent) {
  for (const ParityCell& cell : default_report().cells) {
    EXPECT_TRUE(cell.predicted.probs.is_consistent())
        << cell.workload << " seed " << cell.seed << " " << cell.policy;
    EXPECT_TRUE(cell.simulated.is_consistent());
  }
}

// Mutation checks, mirroring check::DiffSpec::oracle_threshold_bias: bias
// one analytic term and the harness must blow the pinned tolerance —
// proving the parity gate can actually detect a wrong model, not just
// bless whatever the estimator emits.

TEST(AnalyticParity, ThresholdBiasMutationIsDetected) {
  ParitySpec spec = reduced_spec();
  spec.bias.threshold_bias = -16;  // clamp both thresholds to 0
  const ParityReport report = run_analytic_parity(spec);
  EXPECT_GT(report.worst.nvm_writes, kTolNvmWrites);
}

TEST(AnalyticParity, CapacityScaleMutationIsDetected) {
  ParitySpec spec = reduced_spec();
  spec.bias.dram_capacity_scale = 64.0;
  const ParityReport report = run_analytic_parity(spec);
  EXPECT_GT(report.worst.hit_dram, kTolHitDram);
}

}  // namespace
}  // namespace hymem::check
