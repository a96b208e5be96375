// Wall-clock throughput floors of the analytic prescreen. Each asserts a
// rate, not a result, so it means something only in a build that runs at
// full speed: this executable carries its own ctest label (tier1-floor),
// which the plain tier1 gate selects and the sanitizer jobs leave out. The
// deterministic halves of both checks stay in test_runner and test_check.
#include <gtest/gtest.h>

#include <string>

#include "check/analytic_parity.hpp"
#include "runner/prescreen.hpp"
#include "synth/workload_profile.hpp"

namespace hymem {
namespace {

// The speed at which ranking cells analytically before simulating them
// pays off; measured throughput is well above (thousands per second).
constexpr double kMinEvalsPerSecond = 1000.0;

TEST(PrescreenFloor, AnalyticThroughputAtLeast1000PerSecond) {
  // The grid of Prescreen.CharacterizationIsSharedAcrossTheGrid: canneal,
  // a supported and an unsupported policy, four memory sizes.
  runner::SweepSpec spec;
  spec.workloads = {synth::parsec_profile("canneal")};
  spec.policies = {"two-lru", "two-lru-adaptive"};
  for (const double memory_fraction : {0.40, 0.60, 0.75, 0.95}) {
    runner::ConfigVariant variant;
    variant.label = "mem" + std::to_string(memory_fraction);
    variant.config.memory_fraction = memory_fraction;
    spec.variants.push_back(variant);
  }
  spec.scale = 512;
  spec.base_seed = 42;
  runner::PrescreenOptions options;
  options.refine_top = 1;
  options.run.jobs = 1;
  const runner::PrescreenResults screened =
      runner::run_prescreened_sweep(spec, options);
  EXPECT_GE(screened.analytic_evals_per_second(), kMinEvalsPerSecond);
}

TEST(AnalyticParityFloor, AnalyticThroughputAtLeast1000PerSecond) {
  const check::ParityReport report =
      check::run_analytic_parity(check::ParitySpec{});
  EXPECT_GE(report.analytic_evals_per_second, kMinEvalsPerSecond);
}

}  // namespace
}  // namespace hymem
