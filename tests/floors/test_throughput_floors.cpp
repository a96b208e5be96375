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
  // Canneal and two-LRU at 200 memory sizes (0.400 to 0.997): enough
  // estimates that the timed sum spans tens of milliseconds, so one
  // preemption of the test process cannot decide the result.
  runner::SweepSpec spec;
  spec.workloads = {synth::parsec_profile("canneal")};
  spec.policies = {"two-lru"};
  for (int k = 0; k < 200; ++k) {
    runner::ConfigVariant variant;
    variant.config.memory_fraction = 0.400 + 0.003 * k;
    variant.label = "mem" + std::to_string(variant.config.memory_fraction);
    spec.variants.push_back(variant);
  }
  spec.scale = 512;
  spec.base_seed = 42;
  runner::PrescreenOptions options;
  options.refine_top = 1;
  options.run.jobs = 1;
  const runner::PrescreenResults screened =
      runner::run_prescreened_sweep(spec, options);
  ASSERT_EQ(screened.analytic_evals, 200u);
  EXPECT_GE(screened.analytic_evals_per_second(), kMinEvalsPerSecond);
}

TEST(AnalyticParityFloor, AnalyticThroughputAtLeast1000PerSecond) {
  const check::ParityReport report =
      check::run_analytic_parity(check::ParitySpec{});
  EXPECT_GE(report.analytic_evals_per_second, kMinEvalsPerSecond);
}

}  // namespace
}  // namespace hymem
