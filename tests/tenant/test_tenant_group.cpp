// TenantGroup structure: page-ID namespacing, budget-mode parsing, config
// validation (including the pinned tenant-mode policy restriction), budget
// conservation under fuzzed churn in both arbitration modes, attribution
// conservation, and departed-tenant teardown.
#include "tenant/tenant_group.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "check/fuzzer.hpp"
#include "check/tenant_invariants.hpp"
#include "sim/policy_factory.hpp"
#include "synth/tenant_stream.hpp"

namespace hymem::tenant {
namespace {

TenantGroupConfig small_config() {
  TenantGroupConfig config;
  config.dram_frames = 16;
  config.nvm_frames = 48;
  return config;
}

trace::MemAccess read_of(PageId local, std::uint64_t page_size) {
  return {local * page_size, AccessType::kRead};
}

TEST(TenantNamespacing, RoundTripsAndTenantZeroIsIdentity) {
  EXPECT_EQ(namespaced_page(0, 12345), 12345u);
  const PageId page = namespaced_page(7, 42);
  EXPECT_EQ(tenant_of_page(page), 7u);
  EXPECT_EQ(local_page(page), 42u);
  EXPECT_NE(namespaced_page(1, 0), namespaced_page(2, 0));
  // Distinct namespaces can never collide: the tenant bits sit above the
  // largest legal local page.
  EXPECT_EQ(tenant_of_page(namespaced_page(3, kTenantPageMask)), 3u);
}

TEST(TenantNamespacing, RejectsOverflow) {
  EXPECT_THROW(namespaced_page(0, kTenantPageMask + 1), std::invalid_argument);
  EXPECT_THROW(namespaced_page(kMaxTenants, 0), std::invalid_argument);
}

TEST(BudgetModeNames, RoundTrip) {
  for (const BudgetMode mode :
       {BudgetMode::kStaticEqual, BudgetMode::kDemandProportional,
        BudgetMode::kSharedQueue}) {
    EXPECT_EQ(parse_budget_mode(to_string(mode)), mode);
  }
  EXPECT_THROW(parse_budget_mode("round-robin"), std::invalid_argument);
}

TEST(TenantGroupConfigValidation, RejectsBadShapes) {
  TenantGroupConfig config = small_config();
  config.shards = 0;
  EXPECT_THROW(TenantGroup{config}, std::invalid_argument);
  config = small_config();
  config.dram_frames = 0;
  config.nvm_frames = 0;
  EXPECT_THROW(TenantGroup{config}, std::invalid_argument);
  config = small_config();
  config.access_granularity = 100;  // not a divisor of the page size
  EXPECT_THROW(TenantGroup{config}, std::invalid_argument);
}

// The tenant-mode policy restriction: sampled policies keep per-run global
// structures (hotness tap, background migrator) and cannot be split across
// a group's shards. The message must say who rejected it and enumerate
// every name that would have worked.
TEST(TenantGroupConfigValidation, UnshardablePolicyErrorEnumeratesSupport) {
  TenantGroupConfig config = small_config();
  config.policy = "sampled-lru";
  try {
    TenantGroup group(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tenant groups does not support policy: sampled-lru"),
              std::string::npos)
        << msg;
    for (const auto& name : sim::shardable_policy_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name;
    }
  }
}

TEST(TenantGroup, SharedQueueForcesOneShard) {
  TenantGroupConfig config = small_config();
  config.budget_mode = BudgetMode::kSharedQueue;
  config.shards = 4;
  TenantGroup group(config);
  EXPECT_EQ(group.shard_count(), 1u);
}

// Budget conservation under fuzzed churn, both arbitration modes, with the
// full structural audit (check/tenant_invariants) after every operation:
// per-shard slices always sum to the shared budget, residency never
// exceeds a slice, and every resident page has exactly one owner.
TEST(TenantGroup, BudgetConservedUnderFuzzedChurnStaticAndDemand) {
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = 0xb0d6e7 + i;
    check::TenantFuzzCase fuzz = check::make_tenant_fuzz_case(seed, 600);
    for (const BudgetMode mode :
         {BudgetMode::kStaticEqual, BudgetMode::kDemandProportional}) {
      fuzz.group.budget_mode = mode;
      const synth::TenantStream stream =
          synth::generate_tenant_stream(fuzz.spec);
      TenantGroup group(fuzz.group);
      check::install_invariant_hook(group);
      try {
        (void)group.run(stream);
      } catch (const std::logic_error& e) {
        FAIL() << fuzz.describe() << " mode " << to_string(mode) << ": "
               << e.what();
      }
    }
  }
}

TEST(TenantGroup, AttributionSumsToTotals) {
  TenantGroupConfig config = small_config();
  config.shards = 2;
  TenantGroup group(config);
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint32_t tenant = 0; tenant < 3; ++tenant) {
      for (PageId p = 0; p < 20; ++p) {
        group.serve(tenant, read_of(p + round, config.page_size));
      }
    }
  }
  group.depart(1);
  const TenantGroupResult result = group.finish("attribution");
  ASSERT_EQ(result.tenants.size(), 3u);
  model::EventCounts sum;
  for (const TenantCounters& t : result.tenants) {
    sum.accesses += t.counts.accesses;
    sum.page_faults += t.counts.page_faults;
    sum.dram_read_hits += t.counts.dram_read_hits;
    sum.nvm_read_hits += t.counts.nvm_read_hits;
    sum.migrations_to_dram += t.counts.migrations_to_dram;
    sum.migrations_to_nvm += t.counts.migrations_to_nvm;
    sum.dirty_evictions += t.counts.dirty_evictions;
  }
  EXPECT_EQ(sum.accesses, result.totals.accesses);
  EXPECT_EQ(sum.page_faults, result.totals.page_faults);
  EXPECT_EQ(sum.dram_read_hits, result.totals.dram_read_hits);
  EXPECT_EQ(sum.nvm_read_hits, result.totals.nvm_read_hits);
  EXPECT_EQ(sum.migrations_to_dram, result.totals.migrations_to_dram);
  EXPECT_EQ(sum.migrations_to_nvm, result.totals.migrations_to_nvm);
  EXPECT_EQ(sum.dirty_evictions, result.totals.dirty_evictions);
  EXPECT_EQ(result.accesses, 180u);
}

TEST(TenantGroup, DepartedTenantsHoldNoPages) {
  TenantGroupConfig config = small_config();
  TenantGroup group(config);
  for (PageId p = 0; p < 10; ++p) {
    group.serve(0, read_of(p, config.page_size));
    group.serve(1, read_of(p, config.page_size));
  }
  EXPECT_GT(group.resident_pages(1, Tier::kDram) +
                group.resident_pages(1, Tier::kNvm),
            0u);
  group.depart(1);
  EXPECT_FALSE(group.is_active(1));
  EXPECT_EQ(group.resident_pages(1, Tier::kDram), 0u);
  EXPECT_EQ(group.resident_pages(1, Tier::kNvm), 0u);
  // The survivor was flushed as collateral (same shard) but is rebuilt and
  // keeps serving; its eviction cost is on the ledger.
  const TenantGroupResult result = group.finish("depart");
  EXPECT_GT(result.reconfig_evictions, 0u);
  EXPECT_GT(result.reconfigurations, 0u);
}

// A DRAM write hit parks its dirty bit on the policy's node. A departure
// flush evicts behind the policy's back, so the group must publish those
// bits first, or the flush would page out nothing.
TEST(TenantGroup, DepartureFlushPagesOutParkedDirtyPages) {
  for (const std::string policy : {"two-lru", "clock-dwf", "dram-only"}) {
    TenantGroupConfig config = small_config();
    config.policy = policy;
    if (policy == "dram-only") config.nvm_frames = 0;
    TenantGroup group(config);
    for (PageId p = 0; p < 5; ++p) group.serve(1, read_of(p, config.page_size));
    for (PageId p = 0; p < 5; ++p) {
      group.serve(1, {p * config.page_size, AccessType::kWrite});
    }
    EXPECT_EQ(group.counters(1).counts.dirty_evictions, 0u) << policy;
    group.depart(1);
    EXPECT_EQ(group.counters(1).counts.dirty_evictions, 5u) << policy;
  }
}

TEST(TenantGroup, FinishIsOneShot) {
  TenantGroupConfig config = small_config();
  TenantGroup group(config);
  group.serve(0, read_of(0, config.page_size));
  (void)group.finish("once");
  EXPECT_THROW(group.finish("twice"), std::logic_error);
  EXPECT_THROW(group.serve(0, read_of(1, config.page_size)),
               std::logic_error);
}

TEST(TenantGroup, EpochTimelineRecordsChurn) {
  TenantGroupConfig config = small_config();
  config.epoch_accesses = 16;
  TenantGroup group(config);
  for (PageId p = 0; p < 24; ++p) group.serve(0, read_of(p, config.page_size));
  group.serve(1, read_of(0, config.page_size));
  group.depart(1);
  for (PageId p = 0; p < 8; ++p) group.serve(0, read_of(p, config.page_size));
  const TenantGroupResult result = group.finish("timeline");
  ASSERT_GE(result.timeline.size(), 2u);
  EXPECT_EQ(result.timeline[0].end_access, 16u);
  EXPECT_EQ(result.timeline[0].arrivals, 1u);  // tenant 0 auto-admission
  std::uint64_t arrivals = 0, departures = 0, delta_accesses = 0;
  for (const TenantEpochRecord& e : result.timeline) {
    arrivals += e.arrivals;
    departures += e.departures;
    delta_accesses += e.delta.accesses;
  }
  EXPECT_EQ(arrivals, 2u);
  EXPECT_EQ(departures, 1u);
  EXPECT_EQ(delta_accesses, result.accesses);  // epochs tile the run
}

TEST(TenantGroup, CountersThrowForUnknownTenants) {
  TenantGroupConfig config = small_config();
  TenantGroup group(config);
  group.serve(3, read_of(0, config.page_size));
  EXPECT_EQ(group.counters(3).counts.accesses, 1u);
  EXPECT_THROW(group.counters(4), std::invalid_argument);
}

}  // namespace
}  // namespace hymem::tenant
