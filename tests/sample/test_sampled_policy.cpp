#include "sample/sampled_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "os/vmm.hpp"
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

/// Serves one access (the policy feeds its own tap).
Nanoseconds step(SampledLruPolicy& policy, PageId page,
                 AccessType type = AccessType::kRead) {
  return policy.on_access(page, type);
}

TEST(SampledPolicy, DemandFillsDramFirstThenNvmThenEvictsOldestNvm) {
  os::Vmm vmm(tiny_config(1, 2));
  SampleConfig cfg;
  SampledLruPolicy policy(vmm, cfg);
  step(policy, 0);  // DRAM
  step(policy, 1);  // NVM
  step(policy, 2);  // NVM
  EXPECT_EQ(vmm.tier_of(0), Tier::kDram);
  EXPECT_EQ(vmm.tier_of(1), Tier::kNvm);
  EXPECT_EQ(vmm.tier_of(2), Tier::kNvm);
  // Memory full: the next fault evicts the oldest NVM fault (page 1).
  step(policy, 3);
  EXPECT_FALSE(vmm.is_resident(1));
  EXPECT_EQ(vmm.tier_of(3), Tier::kNvm);
  EXPECT_EQ(vmm.tier_of(0), Tier::kDram);  // DRAM is not raided for faults
  EXPECT_EQ(policy.queue(Tier::kDram).size(), vmm.resident(Tier::kDram));
  EXPECT_EQ(policy.queue(Tier::kNvm).size(), vmm.resident(Tier::kNvm));
}

TEST(SampledPolicy, TapSamplesEveryNthAccess) {
  os::Vmm vmm(tiny_config(2, 4));
  SampleConfig cfg;
  cfg.sample_period = 4;
  SampledLruPolicy policy(vmm, cfg);
  for (int i = 0; i < 8; ++i) step(policy, 0);
  EXPECT_EQ(policy.sampled_stats().samples, 2u);
}

TEST(SampledPolicy, HotNvmPageIsPromotedAtTheDrainBoundary) {
  os::Vmm vmm(tiny_config(1, 2));
  SampleConfig cfg;
  cfg.sample_period = 1;  // see every access
  cfg.hot_threshold = 2;
  cfg.cooling_period = 1 << 20;  // out of the way
  cfg.drain_period = 4;
  cfg.migration_budget = 0;  // unlimited
  SampledLruPolicy policy(vmm, cfg);

  step(policy, 0);  // DRAM resident
  step(policy, 1);  // NVM resident, count 1
  step(policy, 1);  // count 2: upward crossing -> hot ring
  EXPECT_EQ(policy.hot_ring().size(), 1u);

  // Access #4 crosses the drain boundary: the drain runs before serving
  // and promotes page 1. DRAM is full, so it swaps with page 0.
  step(policy, 1);
  EXPECT_EQ(vmm.tier_of(1), Tier::kDram);
  EXPECT_EQ(vmm.tier_of(0), Tier::kNvm);
  const auto stats = policy.sampled_stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.demotions, 1u);  // the swap's displaced page
  EXPECT_EQ(stats.migration_copies, 2u);
  EXPECT_EQ(stats.backlog, 0u);
  EXPECT_EQ(policy.queue(Tier::kDram).size(), 1u);
  EXPECT_EQ(policy.queue(Tier::kNvm).size(), 1u);
}

TEST(SampledPolicy, DrainRespectsTheMigrationBudget) {
  os::Vmm vmm(tiny_config(2, 6));
  SampleConfig cfg;
  cfg.sample_period = 1;
  cfg.hot_threshold = 2;
  cfg.cooling_period = 1 << 20;
  cfg.drain_period = 16;
  cfg.migration_budget = 1;
  SampledLruPolicy policy(vmm, cfg);

  // Fill memory, then heat several NVM pages past the threshold.
  for (PageId p = 0; p < 8; ++p) step(policy, p);
  for (int round = 0; round < 20; ++round) {
    for (PageId p = 4; p < 8; ++p) step(policy, p);
  }
  const auto stats = policy.sampled_stats();
  EXPECT_GT(stats.drains, 0u);
  EXPECT_LE(policy.last_drain_ops(), 1u);
  // One budgeted candidate per drain at most (stale candidates are free,
  // so only real migrations are bounded). A swap is one candidate but
  // counts one promotion and one demotion.
  EXPECT_LE(stats.promotions, stats.drains);
  EXPECT_LE(stats.demotions, stats.drains);
  EXPECT_GT(stats.promotions, 0u);
}

TEST(SampledPolicy, CoolingDemotesIdleDramPages) {
  os::Vmm vmm(tiny_config(2, 4));
  SampleConfig cfg;
  cfg.sample_period = 1;
  cfg.hot_threshold = 4;
  cfg.cold_threshold = 2;
  cfg.cooling_period = 8;
  cfg.drain_period = 4;
  cfg.migration_budget = 0;
  SampledLruPolicy policy(vmm, cfg);

  step(policy, 0);  // DRAM
  step(policy, 1);  // DRAM
  // Heat page 0 a little (count 3), then leave it idle while accessing
  // NVM-resident filler below the hot threshold. Cooling passes halve
  // 3 -> 1, crossing below cold_threshold=2 while DRAM-resident.
  step(policy, 0);
  step(policy, 0);
  std::uint64_t demotions = 0;
  for (int round = 0; round < 40 && demotions == 0; ++round) {
    step(policy, 2 + static_cast<PageId>(round % 3));
    demotions = policy.sampled_stats().demotions;
  }
  EXPECT_GT(demotions, 0u);
  EXPECT_FALSE(vmm.tier_of(0) == Tier::kDram);
  EXPECT_GT(policy.sampled_stats().coolings, 0u);
}

TEST(SampledPolicy, FullRingDropsAndCountsCandidates) {
  os::Vmm vmm(tiny_config(1, 8));
  SampleConfig cfg;
  cfg.sample_period = 1;
  cfg.hot_threshold = 1;       // every first sample is a crossing
  cfg.ring_capacity = 1;       // tiny ring: second candidate drops
  cfg.cooling_period = 1 << 20;
  cfg.drain_period = 1 << 20;  // never drain within this test
  SampledLruPolicy policy(vmm, cfg);

  step(policy, 0);  // DRAM; crossing but DRAM-resident -> not a candidate
  step(policy, 1);  // NVM crossing -> hot ring (now full)
  step(policy, 2);  // NVM crossing -> dropped
  step(policy, 3);  // NVM crossing -> dropped
  const auto stats = policy.sampled_stats();
  EXPECT_EQ(policy.hot_ring().size(), 1u);
  EXPECT_EQ(stats.sample_drops, 2u);
  EXPECT_EQ(stats.hot_ring_hwm, 1u);
}

TEST(SampledPolicy, ResetStatsKeepsLearnedStateAndResidency) {
  os::Vmm vmm(tiny_config(1, 2));
  SampleConfig cfg;
  cfg.sample_period = 1;
  cfg.hot_threshold = 2;
  cfg.drain_period = 4;
  SampledLruPolicy policy(vmm, cfg);
  for (int i = 0; i < 8; ++i) step(policy, static_cast<PageId>(i % 3));
  ASSERT_GT(policy.sampled_stats().samples, 0u);

  policy.reset_stats();
  const auto stats = policy.sampled_stats();
  EXPECT_EQ(stats.samples, 0u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.demotions, 0u);
  EXPECT_EQ(stats.migration_copies, 0u);
  // Learned state survives: residency queues still cover the VMM.
  EXPECT_EQ(policy.queue(Tier::kDram).size(), vmm.resident(Tier::kDram));
  EXPECT_EQ(policy.queue(Tier::kNvm).size(), vmm.resident(Tier::kNvm));
  EXPECT_GT(policy.sampling_tap().board().tracked(), 0u);
}

TEST(SampledExperiment, RunWorkloadIsDeterministic) {
  sim::ExperimentConfig config;
  config.policy = "sampled-lru";
  config.sample.sample_period = 4;
  config.sample.drain_period = 64;
  config.sample.migration_budget = 8;
  const auto& profile = synth::parsec_profile("canneal");
  const auto a = sim::run_workload(profile, 512, config, 42);
  const auto b = sim::run_workload(profile, 512, config, 42);
  ASSERT_TRUE(a.has_sampled);
  ASSERT_TRUE(b.has_sampled);
  EXPECT_EQ(a.amat().total(), b.amat().total());
  EXPECT_EQ(a.counts.accesses, b.counts.accesses);
  EXPECT_EQ(a.sampled.samples, b.sampled.samples);
  EXPECT_EQ(a.sampled.promotions, b.sampled.promotions);
  EXPECT_EQ(a.sampled.demotions, b.sampled.demotions);
  EXPECT_EQ(a.sampled.sample_drops, b.sampled.sample_drops);
  EXPECT_EQ(a.sampled.drains, b.sampled.drains);
  EXPECT_GT(a.sampled.samples, 0u);
}

TEST(SampledExperiment, TimelineCarriesSampledColumnsThatSumToTotals) {
  sim::ExperimentConfig config;
  config.policy = "sampled-lru";
  config.sample.sample_period = 2;
  config.sample.drain_period = 64;
  config.timeline_epoch = 997;
  const auto& profile = synth::parsec_profile("canneal");
  const auto result = sim::run_workload(profile, 512, config, 42);
  ASSERT_TRUE(result.has_sampled);
  ASSERT_FALSE(result.timeline.empty());
  std::uint64_t samples = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  for (const auto& r : result.timeline.epochs) {
    samples += r.samples;
    promotions += r.sampled_promotions;
    demotions += r.sampled_demotions;
  }
  EXPECT_EQ(samples, result.sampled.samples);
  EXPECT_EQ(promotions, result.sampled.promotions);
  EXPECT_EQ(demotions, result.sampled.demotions);
  EXPECT_EQ(result.timeline.epochs.back().migration_backlog,
            result.sampled.backlog);
  EXPECT_GT(samples, 0u);
}

TEST(SampledExperiment, NonSampledTimelineKeepsSampledColumnsZero) {
  sim::ExperimentConfig config;
  config.policy = "two-lru";
  config.timeline_epoch = 997;
  const auto& profile = synth::parsec_profile("canneal");
  const auto result = sim::run_workload(profile, 512, config, 42);
  EXPECT_FALSE(result.has_sampled);
  ASSERT_FALSE(result.timeline.empty());
  for (const auto& r : result.timeline.epochs) {
    EXPECT_EQ(r.samples, 0u);
    EXPECT_EQ(r.sampled_promotions, 0u);
    EXPECT_EQ(r.sampled_demotions, 0u);
    EXPECT_EQ(r.migration_backlog, 0u);
  }
}

}  // namespace
}  // namespace hymem::sample
