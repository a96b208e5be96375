#include "policy/single_tier.hpp"

#include <gtest/gtest.h>

#include "trace/reuse_distance.hpp"
#include "util/random.hpp"

namespace hymem::policy {
namespace {

os::VmmConfig dram_only_config(std::uint64_t frames) {
  os::VmmConfig c;
  c.dram_frames = frames;
  c.nvm_frames = 0;
  return c;
}

TEST(SingleTier, NameReflectsTierAndPolicy) {
  os::Vmm vmm(dram_only_config(4));
  const SingleTierPolicy policy(vmm, Tier::kDram);
  EXPECT_EQ(policy.name(), "dram-only-lru");
}

TEST(SingleTier, ColdMissCostsDiskLatency) {
  os::Vmm vmm(dram_only_config(4));
  SingleTierPolicy policy(vmm, Tier::kDram);
  EXPECT_DOUBLE_EQ(policy.on_access(1, AccessType::kRead), 5e6);
  EXPECT_DOUBLE_EQ(policy.on_access(1, AccessType::kRead), 50);
}

TEST(SingleTier, EvictionAtCapacity) {
  os::Vmm vmm(dram_only_config(2));
  SingleTierPolicy policy(vmm, Tier::kDram);
  policy.on_access(1, AccessType::kRead);
  policy.on_access(2, AccessType::kRead);
  policy.on_access(3, AccessType::kRead);  // evicts 1
  EXPECT_FALSE(vmm.is_resident(1));
  EXPECT_TRUE(vmm.is_resident(2));
  EXPECT_TRUE(vmm.is_resident(3));
  EXPECT_EQ(vmm.resident(Tier::kDram), 2u);
}

TEST(SingleTier, WriteFaultMarksPageDirty) {
  os::Vmm vmm(dram_only_config(1));
  SingleTierPolicy policy(vmm, Tier::kDram);
  policy.on_access(1, AccessType::kWrite);
  policy.on_access(2, AccessType::kRead);  // evicts dirty 1
  EXPECT_EQ(vmm.disk().page_outs(), 1u);
}

TEST(SingleTier, HitRatioMatchesMattsonStackAnalysis) {
  // The gold-standard cross-check: a DRAM-only LRU must hit exactly when
  // the reuse distance is below capacity.
  constexpr std::uint64_t kCapacity = 24;
  os::Vmm vmm(dram_only_config(kCapacity));
  SingleTierPolicy policy(vmm, Tier::kDram);
  trace::ReuseDistanceAnalyzer rd(4096);
  Rng rng(123);
  std::uint64_t accesses = 0;
  for (int i = 0; i < 8000; ++i) {
    const PageId page = rng.next_below(100);
    rd.observe(page * 4096);
    policy.on_access(page, AccessType::kRead);
    ++accesses;
  }
  const auto& counters = vmm.device(Tier::kDram).counters();
  const double simulated_hit_ratio =
      static_cast<double>(counters.demand_reads) / static_cast<double>(accesses);
  EXPECT_NEAR(simulated_hit_ratio, rd.lru_hit_ratio(kCapacity), 1e-12);
}

TEST(SingleTier, NvmOnlyVariantUsesNvmTimings) {
  os::VmmConfig cfg;
  cfg.dram_frames = 0;
  cfg.nvm_frames = 2;
  os::Vmm vmm(cfg);
  SingleTierPolicy policy(vmm, Tier::kNvm);
  EXPECT_EQ(policy.name(), "nvm-only-lru");
  policy.on_access(1, AccessType::kRead);
  EXPECT_DOUBLE_EQ(policy.on_access(1, AccessType::kWrite), 350);
  EXPECT_GT(vmm.nvm_endurance().total_writes(), 0u);
}

TEST(SingleTier, RequiresEmptyOtherModule) {
  os::VmmConfig cfg;
  cfg.dram_frames = 4;
  cfg.nvm_frames = 4;
  os::Vmm vmm(cfg);
  EXPECT_THROW(SingleTierPolicy(vmm, Tier::kDram), std::logic_error);
}

}  // namespace
}  // namespace hymem::policy
