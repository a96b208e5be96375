// Threaded-mode tests: a real background migrator thread consuming the
// rings while the test thread serves accesses. Timing-dependent by design —
// assertions cover safety (invariants, conservation) and eventual drain,
// never exact migration counts. The runner CI job replays this binary
// under TSan; together with test_spsc_ring's producer/consumer stress it
// is the data-race certificate for the subsystem.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "check/sampled_invariants.hpp"
#include "os/vmm.hpp"
#include "sample/sampled_policy.hpp"
#include "sim/experiment.hpp"
#include "synth/workload_profile.hpp"

namespace hymem::sample {
namespace {

os::VmmConfig tiny_config(std::uint64_t dram, std::uint64_t nvm) {
  os::VmmConfig c;
  c.dram_frames = dram;
  c.nvm_frames = nvm;
  return c;
}

void step(SampledLruPolicy& policy, PageId page) {
  policy.on_access(page, AccessType::kRead);
}

TEST(SampledThreaded, BackgroundMigratorDrainsTheRingsEventually) {
  os::Vmm vmm(tiny_config(2, 6));
  SampleConfig cfg;
  cfg.threaded = true;
  cfg.sample_period = 1;
  cfg.hot_threshold = 2;
  cfg.cooling_period = 1 << 20;
  cfg.drain_period = 8;
  cfg.migration_budget = 0;  // unlimited: backlog must reach zero
  SampledLruPolicy policy(vmm, cfg);

  for (PageId p = 0; p < 8; ++p) step(policy, p);
  for (int round = 0; round < 50; ++round) {
    for (PageId p = 4; p < 8; ++p) step(policy, p);
  }
  // Candidates were produced; wait (bounded) for the migrator to drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (policy.hot_ring().size() + policy.cold_ring().size() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  policy.stop_background();

  EXPECT_EQ(policy.hot_ring().size() + policy.cold_ring().size(), 0u);
  const auto stats = policy.sampled_stats();
  EXPECT_GT(stats.samples, 0u);
  // Quiesced: the full virtual-time invariant suite must hold.
  check::check_invariants(policy);
}

TEST(SampledThreaded, StopBackgroundIsIdempotentAndStatsStayConsistent) {
  os::Vmm vmm(tiny_config(1, 3));
  SampleConfig cfg;
  cfg.threaded = true;
  cfg.sample_period = 1;
  cfg.hot_threshold = 1;
  cfg.drain_period = 4;
  SampledLruPolicy policy(vmm, cfg);
  for (int round = 0; round < 100; ++round) {
    step(policy, static_cast<PageId>(round % 5));
  }
  policy.stop_background();
  policy.stop_background();  // second call must be a no-op
  const auto stats = policy.sampled_stats();
  // Copy conservation: every promotion and every demotion moves exactly
  // one page (a swap is one of each, two copies).
  EXPECT_EQ(stats.migration_copies, stats.promotions + stats.demotions);
  check::check_invariants(policy);
}

TEST(SampledThreaded, ExperimentPathRunsThreadedAndStopsCleanly) {
  sim::ExperimentConfig config;
  config.policy = "sampled-lru";
  config.sample.threaded = true;
  config.sample.sample_period = 4;
  config.sample.drain_period = 64;
  config.sample.migration_budget = 8;
  const auto& profile = synth::parsec_profile("canneal");
  const auto result = sim::run_workload(profile, 512, config, 42);
  ASSERT_TRUE(result.has_sampled);
  EXPECT_GT(result.counts.accesses, 0u);
  EXPECT_GT(result.sampled.samples, 0u);
  EXPECT_GT(result.amat().total(), 0.0);
}

TEST(SampledThreaded, TimelineSnapshotsHoldTheServingMutex) {
  // Epoch snapshots read the VMM ledgers while the migrator mutates them;
  // the engine takes them under HybridPolicy::quiesced(), and joins the
  // migrator before the last flush. TSan checks the locking; the deltas
  // must still sum to the run totals.
  sim::ExperimentConfig config;
  config.policy = "sampled-lru";
  config.timeline_epoch = 257;
  config.sample.threaded = true;
  config.sample.sample_period = 2;
  config.sample.drain_period = 32;
  config.sample.migration_budget = 0;
  const auto& profile = synth::parsec_profile("canneal");
  const auto result = sim::run_workload(profile, 512, config, 42);
  ASSERT_TRUE(result.has_sampled);
  ASSERT_FALSE(result.timeline.empty());
  std::uint64_t accesses = 0;
  std::uint64_t migrations = 0;
  std::uint64_t samples = 0;
  for (const auto& epoch : result.timeline.epochs) {
    accesses += epoch.delta.accesses;
    migrations += epoch.delta.migrations();
    samples += epoch.samples;
  }
  EXPECT_EQ(accesses, result.counts.accesses);
  EXPECT_EQ(migrations, result.counts.migrations());
  EXPECT_EQ(samples, result.sampled.samples);
  EXPECT_GT(samples, 0u);
}

}  // namespace
}  // namespace hymem::sample
