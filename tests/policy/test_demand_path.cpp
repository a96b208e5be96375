// One demand path: every final policy's serve step returns each demand hit
// to serve_block, which records it. Demand::kNone means a page fault and
// nothing else; a hit that moves no page names the tier that held the page
// and the access type; a hit that promotes names NVM, which served it
// before the page moved. CLOCK-DWF's write to an NVM page is the one
// exception: the forced promotion runs first and DRAM serves the write.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/migration_scheme.hpp"
#include "os/vmm.hpp"
#include "policy/clock_dwf.hpp"
#include "policy/dram_cache.hpp"
#include "policy/rank_mq.hpp"
#include "policy/single_tier.hpp"
#include "policy/static_partition.hpp"
#include "sample/sampled_policy.hpp"
#include "util/flat_page_map.hpp"
#include "util/random.hpp"

namespace hymem::policy {
namespace {

os::VmmConfig memory(std::uint64_t dram, std::uint64_t nvm) {
  os::VmmConfig c;
  c.dram_frames = dram;
  c.nvm_frames = nvm;
  return c;
}

Demand demand_of(Tier tier, AccessType type) {
  if (type == AccessType::kWrite) {
    return tier == Tier::kDram ? Demand::kDramWrite : Demand::kNvmWrite;
  }
  return tier == Tier::kDram ? Demand::kDramRead : Demand::kNvmRead;
}

/// The cases one replay exercised, so each test can require its own.
struct Seen {
  std::uint64_t faults = 0;
  std::array<std::uint64_t, 2> hits{};  ///< Served in place, by tier.
  std::uint64_t promotions = 0;         ///< Hits that moved the page to DRAM.
};

/// Serves 4,000 skewed accesses over `pages` pages through `policy.serve`
/// and checks each call's Demand against the page's tier before the call.
/// `covered(i)` leaves out the calls the contract does not pin (a sampled
/// drain runs before its access is served). A promoting hit must name
/// `promoting_tier`.
template <typename P, typename Covered>
Seen replay(P& policy, std::uint64_t pages, Tier promoting_tier,
            Covered covered) {
  const os::Vmm& vmm = policy.vmm();
  Rng rng(2016);
  Seen seen;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const PageId page = rng.next_below(rng.next_bool(0.7) ? pages / 4 : pages);
    const AccessType type =
        rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead;
    const std::optional<Tier> before = vmm.tier_of(page);
    const mem::DmaCounters moves = vmm.dma_counters();
    const Served served = policy.serve(page, util::hash_page_id(page), type);
    if (!covered(i)) continue;
    SCOPED_TRACE(testing::Message() << "access " << i << ", page " << page);
    EXPECT_EQ(served.demand == Demand::kNone, !before.has_value());
    if (!before.has_value()) {
      ++seen.faults;
      continue;
    }
    const mem::DmaCounters& now = vmm.dma_counters();
    if (now.migrations_nvm_to_dram == moves.migrations_nvm_to_dram &&
        now.migrations_dram_to_nvm == moves.migrations_dram_to_nvm) {
      EXPECT_EQ(served.demand, demand_of(*before, type));
      ++seen.hits[static_cast<std::size_t>(*before)];
    } else {
      EXPECT_EQ(*before, Tier::kNvm);
      EXPECT_EQ(vmm.tier_of(page), Tier::kDram);
      EXPECT_EQ(served.demand, demand_of(promoting_tier, type));
      ++seen.promotions;
    }
  }
  return seen;
}

template <typename P>
Seen replay(P& policy, std::uint64_t pages, Tier promoting_tier) {
  return replay(policy, pages, promoting_tier, [](std::uint64_t) {
    return true;
  });
}

constexpr std::size_t kDram = static_cast<std::size_t>(Tier::kDram);
constexpr std::size_t kNvm = static_cast<std::size_t>(Tier::kNvm);

TEST(DemandPath, SingleTierDram) {
  os::Vmm vmm(memory(16, 0));
  SingleTierPolicy policy(vmm, Tier::kDram);
  const Seen seen = replay(policy, 64, Tier::kDram);
  EXPECT_GT(seen.faults, 0u);
  EXPECT_GT(seen.hits[kDram], 0u);
}

TEST(DemandPath, SingleTierNvm) {
  os::Vmm vmm(memory(0, 16));
  SingleTierPolicy policy(vmm, Tier::kNvm);
  const Seen seen = replay(policy, 64, Tier::kNvm);
  EXPECT_GT(seen.faults, 0u);
  EXPECT_GT(seen.hits[kNvm], 0u);
}

TEST(DemandPath, ClockDwfServesAForcedWriteFromDram) {
  os::Vmm vmm(memory(8, 16));
  ClockDwfPolicy policy(vmm);
  const Seen seen = replay(policy, 64, Tier::kDram);
  EXPECT_GT(seen.hits[kDram], 0u);
  EXPECT_GT(seen.hits[kNvm], 0u);
  EXPECT_GT(seen.promotions, 0u);
}

TEST(DemandPath, TwoLru) {
  os::Vmm vmm(memory(8, 16));
  core::MigrationConfig config;
  config.read_threshold = 1;
  config.write_threshold = 1;
  core::TwoLruMigrationPolicy policy(vmm, config);
  const Seen seen = replay(policy, 64, Tier::kNvm);
  EXPECT_GT(seen.hits[kDram], 0u);
  EXPECT_GT(seen.hits[kNvm], 0u);
  EXPECT_GT(seen.promotions, 0u);
}

TEST(DemandPath, StaticPartition) {
  os::Vmm vmm(memory(8, 16));
  StaticPartitionPolicy policy(vmm);
  const Seen seen = replay(policy, 64, Tier::kNvm);
  EXPECT_GT(seen.hits[kDram], 0u);
  EXPECT_GT(seen.hits[kNvm], 0u);
}

TEST(DemandPath, DramCache) {
  os::Vmm vmm(memory(8, 16));
  DramCachePolicy policy(vmm);
  const Seen seen = replay(policy, 64, Tier::kNvm);
  EXPECT_GT(seen.hits[kDram], 0u);
  EXPECT_GT(seen.promotions, 0u);
}

TEST(DemandPath, RankMq) {
  os::Vmm vmm(memory(8, 16));
  RankMqPolicy policy(vmm, /*promote_level=*/2, /*lifetime=*/64);
  const Seen seen = replay(policy, 64, Tier::kNvm);
  EXPECT_GT(seen.hits[kDram], 0u);
  EXPECT_GT(seen.hits[kNvm], 0u);
  EXPECT_GT(seen.promotions, 0u);
}

TEST(DemandPath, SampledLru) {
  os::Vmm vmm(memory(8, 16));
  sample::SampleConfig config;
  config.sample_period = 1;
  config.cooling_period = 32;
  config.drain_period = 16;
  sample::SampledLruPolicy policy(vmm, config);
  // Call i is the policy's access i + 1; a drain runs before the access
  // whose count is a multiple of drain_period.
  const Seen seen = replay(policy, 64, Tier::kNvm, [&](std::uint64_t i) {
    return (i + 1) % config.drain_period != 0;
  });
  EXPECT_GT(seen.hits[kDram], 0u);
  EXPECT_GT(seen.hits[kNvm], 0u);
  EXPECT_EQ(seen.promotions, 0u);  // migrations run only in drains
}

}  // namespace
}  // namespace hymem::policy
