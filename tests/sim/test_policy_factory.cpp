#include "sim/policy_factory.hpp"

#include <gtest/gtest.h>

#include "core/migration_scheme.hpp"
#include "sample/sampled_policy.hpp"

namespace hymem::sim {
namespace {

os::VmmConfig config_for(const std::string& name) {
  os::VmmConfig c;
  if (name.rfind("dram-only", 0) == 0) {
    c.dram_frames = 8;
    c.nvm_frames = 0;
  } else if (name.rfind("nvm-only", 0) == 0) {
    c.dram_frames = 0;
    c.nvm_frames = 8;
  } else {
    c.dram_frames = 2;
    c.nvm_frames = 6;
  }
  return c;
}

TEST(PolicyFactory, BuildsEveryAdvertisedPolicy) {
  for (const auto& name : policy_names()) {
    os::Vmm vmm(config_for(name));
    const auto policy = make_policy(name, vmm);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(std::string(policy->name()).rfind(name, 0) == 0 ||
                  name.rfind("dram-only", 0) == 0 ||
                  name.rfind("nvm-only", 0) == 0,
              true)
        << name << " vs " << policy->name();
    // Every policy must survive a few accesses.
    for (PageId p = 0; p < 12; ++p) policy->on_access(p, AccessType::kRead);
  }
}

// The single-tier baselines run LRU only: "<tier>:<replacement>" names are
// unknown policies, rejected like any other typo.
TEST(PolicyFactory, SingleTierVariantsWithReplacementSuffix) {
  for (const char* name :
       {"dram-only:lru", "dram-only:clock", "nvm-only:lru", "nvm-only:fifo"}) {
    EXPECT_FALSE(is_single_tier(name)) << name;
    os::Vmm vmm(config_for(name));
    try {
      make_policy(name, vmm);
      ADD_FAILURE() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      for (const auto& known : policy_names()) {
        EXPECT_NE(msg.find(known), std::string::npos)
            << name << ": missing " << known << " in " << msg;
      }
    }
  }
}

TEST(PolicyFactory, IsSingleTierClassification) {
  EXPECT_TRUE(is_single_tier("dram-only"));
  EXPECT_TRUE(is_single_tier("nvm-only"));
  EXPECT_FALSE(is_single_tier("two-lru"));
  EXPECT_FALSE(is_single_tier("clock-dwf"));
}

TEST(PolicyFactory, MigrationConfigForwarded) {
  os::Vmm vmm(config_for("two-lru"));
  core::MigrationConfig cfg;
  cfg.read_threshold = 17;
  const auto policy = make_policy("two-lru", vmm, cfg);
  const auto* scheme = dynamic_cast<core::TwoLruMigrationPolicy*>(policy.get());
  ASSERT_NE(scheme, nullptr);
  EXPECT_EQ(scheme->read_threshold(), 17u);
}

TEST(PolicyFactory, AdaptiveVariantHasController) {
  os::Vmm vmm(config_for("two-lru-adaptive"));
  const auto policy = make_policy("two-lru-adaptive", vmm);
  const auto* scheme = dynamic_cast<core::TwoLruMigrationPolicy*>(policy.get());
  ASSERT_NE(scheme, nullptr);
  EXPECT_NE(scheme->controller(), nullptr);
}

// check_policy_name lets a CLI reject a name before it builds anything.
TEST(PolicyFactory, UnknownNamesRejected) {
  os::Vmm vmm(config_for("two-lru"));
  EXPECT_THROW(make_policy("nope", vmm), std::invalid_argument);
  EXPECT_THROW(make_policy("dram-onlyx", vmm), std::invalid_argument);
  os::Vmm vmm2(config_for("dram-only"));
  EXPECT_THROW(make_policy("dram-only:bogus", vmm2), std::invalid_argument);
  for (const char* name : {"nope", "dram-onlyx", "dram-only:bogus"}) {
    EXPECT_THROW(check_policy_name(name), std::invalid_argument) << name;
  }
  for (const auto& name : policy_names()) {
    EXPECT_NO_THROW(check_policy_name(name)) << name;
  }
}

// The error message must enumerate every registered name, so a typo'd
// --policy flag tells the user what would have worked. check_policy_name
// throws the same message.
TEST(PolicyFactory, UnknownNameErrorEnumeratesPolicies) {
  os::Vmm vmm(config_for("two-lru"));
  try {
    make_policy("nope", vmm);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const auto& name : policy_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name;
    }
    EXPECT_NE(msg.find("sampled-lru"), std::string::npos);
    try {
      check_policy_name("nope");
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& checked) {
      EXPECT_EQ(msg, checked.what());
    }
  }
}

// Split-budget contexts (tenant groups) cannot host the sampled-* family:
// its hotness tap and migrator are per-run global structures. The classification and the rejection message are API.
TEST(PolicyFactory, ShardableNamesExcludeExactlyTheSampledFamily) {
  const auto shardable = shardable_policy_names();
  for (const auto& name : shardable) {
    EXPECT_TRUE(is_shardable(name)) << name;
    EXPECT_NE(name.rfind("sampled-", 0), 0u) << name;
  }
  EXPECT_FALSE(is_shardable("sampled-lru"));
  EXPECT_TRUE(is_shardable("two-lru"));
  // Everything advertised is either shardable or sampled-*.
  EXPECT_EQ(shardable.size() + 1, policy_names().size());
}

TEST(PolicyFactory, UnshardableErrorNamesContextAndEnumeratesSupport) {
  try {
    throw_unshardable_policy("tenant groups", "sampled-lru");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tenant groups does not support policy: sampled-lru"),
              std::string::npos)
        << msg;
    for (const auto& name : shardable_policy_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name;
    }
  }
}

TEST(PolicyFactory, SampledLruForwardsSampleConfig) {
  os::Vmm vmm(config_for("sampled-lru"));
  sample::SampleConfig scfg;
  scfg.sample_period = 3;
  scfg.migration_budget = 7;
  const auto policy = make_policy("sampled-lru", vmm, {}, scfg);
  const auto* sampled =
      dynamic_cast<sample::SampledLruPolicy*>(policy.get());
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(sampled->config().sample_period, 3u);
  EXPECT_EQ(sampled->config().migration_budget, 7u);
}

}  // namespace
}  // namespace hymem::sim
