#include "model/perf_model.hpp"

#include <gtest/gtest.h>

namespace hymem::model {
namespace {

ModelParams table4_params() {
  ModelParams p;
  p.page_factor = 64;
  p.dram_bytes = 64 * 4096;
  p.nvm_bytes = 576 * 4096;
  return p;
}

// A run with hits in both modules, faults and migrations both ways, so
// every term of Eq. 1 is nonzero.
EventCounts mixed_counts() {
  EventCounts c;
  c.accesses = 100;
  c.dram_read_hits = 50;
  c.nvm_read_hits = 20;
  c.nvm_write_hits = 20;
  c.page_faults = 10;
  c.fills_to_dram = 10;
  c.migrations_to_dram = 2;
  c.migrations_to_nvm = 2;
  c.page_factor = 64;
  return c;
}

TEST(PerfModel, PureDramHitsGiveDramLatency) {
  EventCounts c;
  c.accesses = 10;
  c.dram_read_hits = 6;
  c.dram_write_hits = 4;
  c.page_factor = 64;
  const auto b = amat(c, table4_params());
  EXPECT_DOUBLE_EQ(b.hit_ns, 50.0);
  EXPECT_DOUBLE_EQ(b.fault_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.migration_ns, 0.0);
  EXPECT_DOUBLE_EQ(b.total(), 50.0);
}

TEST(PerfModel, HandComputedEquationOne) {
  // 4 accesses: 1 DRAM read (50), 1 NVM read (100), 1 NVM write (350),
  // 1 miss (5e6). Plus 1 migration each way at PageFactor 64:
  //   N->D: 64*(100+50) = 9600; D->N: 64*(50+350) = 25600.
  EventCounts c;
  c.accesses = 4;
  c.dram_read_hits = 1;
  c.nvm_read_hits = 1;
  c.nvm_write_hits = 1;
  c.page_faults = 1;
  c.fills_to_dram = 1;
  c.migrations_to_dram = 1;
  c.migrations_to_nvm = 1;
  c.page_factor = 64;
  const auto b = amat(c, table4_params());
  EXPECT_DOUBLE_EQ(b.hit_ns, (50.0 + 100.0 + 350.0) / 4);
  EXPECT_DOUBLE_EQ(b.fault_ns, 5e6 / 4);
  EXPECT_DOUBLE_EQ(b.migration_ns, (9600.0 + 25600.0) / 4);
  EXPECT_DOUBLE_EQ(b.request_ns(), b.hit_ns + b.fault_ns);
}

TEST(PerfModel, MigrationTermScalesWithPageFactor) {
  EventCounts c;
  c.accesses = 1;
  c.dram_read_hits = 1;
  c.migrations_to_dram = 1;
  c.page_factor = 64;
  const auto small = amat(c, table4_params());
  c.page_factor = 128;
  const auto large = amat(c, table4_params());
  EXPECT_DOUBLE_EQ(large.migration_ns, 2 * small.migration_ns);
}

// What-if properties of Eq. 1 under a changed technology parameter.
TEST(WhatIf, NvmWriteLatencyMonotone) {
  const EventCounts c = mixed_counts();
  ModelParams p = table4_params();
  p.nvm.write_latency_ns = 100;
  double previous = amat(c, p).total();
  for (const double latency_ns : {200.0, 350.0, 700.0}) {
    p.nvm.write_latency_ns = latency_ns;
    const double total = amat(c, p).total();
    EXPECT_GT(total, previous) << latency_ns;
    previous = total;
  }
}

TEST(WhatIf, DiskLatencyScalesFaultTermOnly) {
  const EventCounts c = mixed_counts();
  ModelParams fast = table4_params();
  fast.disk_latency_ns = 1e6;
  ModelParams slow = fast;
  slow.disk_latency_ns = 5e6;
  const AmatBreakdown a = amat(c, fast);
  const AmatBreakdown b = amat(c, slow);
  EXPECT_DOUBLE_EQ(b.fault_ns, 5 * a.fault_ns);
  EXPECT_DOUBLE_EQ(a.hit_ns, b.hit_ns);
  EXPECT_DOUBLE_EQ(a.migration_ns, b.migration_ns);
}

TEST(PerfModel, EmptyRunYieldsZeroBreakdown) {
  // Eq. 1 over zero accesses is a legitimate query now that the epoch
  // sampler evaluates it per epoch (a window can contain no accesses):
  // every term is zero, not a crash.
  EventCounts c;
  const auto breakdown = amat(c, table4_params());
  EXPECT_DOUBLE_EQ(breakdown.total(), 0.0);
  EXPECT_DOUBLE_EQ(breakdown.request_ns(), 0.0);
  EXPECT_DOUBLE_EQ(breakdown.migration_ns, 0.0);
}

TEST(PerfModel, ModelParamsFromVmm) {
  os::VmmConfig cfg;
  cfg.dram_frames = 10;
  cfg.nvm_frames = 90;
  cfg.page_size = 4096;
  cfg.access_granularity = 64;
  os::Vmm vmm(cfg);
  const auto p = ModelParams::from_vmm(vmm);
  EXPECT_EQ(p.page_factor, 64u);
  EXPECT_EQ(p.dram_bytes, 10u * 4096);
  EXPECT_EQ(p.nvm_bytes, 90u * 4096);
  EXPECT_DOUBLE_EQ(p.disk_latency_ns, 5e6);
  EXPECT_EQ(p.dram.name, "DRAM");
}

}  // namespace
}  // namespace hymem::model
