// The long randomized differential sweeps, two-LRU and CLOCK-DWF (nightly
// CI; ctest -L fuzz).
// Deliberately a separate binary so `ctest -L tier1` never pays for it.
// HYMEM_FUZZ_SEEDS scales the sweep (default 32 seeds x 10k accesses).
#include <gtest/gtest.h>

#include <cstdlib>

#include "check/differential.hpp"

namespace hymem::check {
namespace {

std::uint64_t seed_count(std::uint64_t fallback) {
  const char* env = std::getenv("HYMEM_FUZZ_SEEDS");
  if (env == nullptr) return fallback;
  const long parsed = std::atol(env);
  return parsed > 0 ? static_cast<std::uint64_t>(parsed) : fallback;
}

TEST(FuzzLong, SweepRunsClean) {
  const std::uint64_t seeds = seed_count(32);
  for (std::uint64_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 0xdeadbeef00000000ull + i;
    const FuzzReport report = run_fuzz_case(seed, /*accesses=*/10000);
    EXPECT_TRUE(report.ok()) << report.summary;
    if (!report.ok()) break;  // one full report is enough to act on
  }
}

TEST(FuzzLong, ClockDwfSweepRunsClean) {
  const std::uint64_t seeds = seed_count(32);
  for (std::uint64_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 0xc10c0dcf00000000ull + i;
    const FuzzReport report = run_clock_dwf_fuzz_case(seed, /*accesses=*/10000);
    EXPECT_TRUE(report.ok()) << report.summary;
    if (!report.ok()) break;
  }
}

}  // namespace
}  // namespace hymem::check
