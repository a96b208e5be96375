#include "model/power_model.hpp"

#include <gtest/gtest.h>

#include "model/perf_model.hpp"
#include "util/units.hpp"

namespace hymem::model {
namespace {

ModelParams gig_params() {
  ModelParams p;
  p.page_factor = 64;
  p.dram_bytes = kGiB;      // 1 W static
  p.nvm_bytes = 10 * kGiB;  // 1 W static
  return p;
}

TEST(PowerModel, HandComputedEquationTwo) {
  // 4 accesses: DRAM read (3.2), DRAM write (3.2), NVM read (6.4),
  // NVM write (32). One fill to DRAM: 64*3.2 = 204.8; one fill to NVM:
  // 64*32 = 2048. One migration each way:
  //   N->D: 64*(6.4+3.2) = 614.4; D->N: 64*(3.2+32) = 2252.8.
  EventCounts c;
  c.accesses = 4;
  c.dram_read_hits = 1;
  c.dram_write_hits = 1;
  c.nvm_read_hits = 1;
  c.nvm_write_hits = 1;
  c.page_faults = 2;
  c.fills_to_dram = 1;
  c.fills_to_nvm = 1;
  c.migrations_to_dram = 1;
  c.migrations_to_nvm = 1;
  c.page_factor = 64;
  const auto b = appr(c, gig_params(), /*duration_s=*/0.0);
  EXPECT_DOUBLE_EQ(b.hit_nj, (3.2 + 3.2 + 6.4 + 32.0) / 4);
  EXPECT_DOUBLE_EQ(b.fault_fill_nj, (204.8 + 2048.0) / 4);
  EXPECT_DOUBLE_EQ(b.migration_nj, (614.4 + 2252.8) / 4);
  EXPECT_DOUBLE_EQ(b.static_nj, 0.0);
  EXPECT_DOUBLE_EQ(b.dynamic(), b.total());
}

TEST(PowerModel, StaticProrationEquationThree) {
  EventCounts c;
  c.accesses = 1000;
  c.dram_read_hits = 1000;
  c.page_factor = 64;
  // 2 W for 1 s over 1000 requests = 2 mJ / 1000 = 2e6 nJ per request.
  const auto b = appr(c, gig_params(), 1.0);
  EXPECT_DOUBLE_EQ(b.static_nj, 2e9 / 1000);
}

TEST(PowerModel, StaticTermIndependentOfEventMix) {
  // Eq. 3's term depends only on (capacity, duration, request count) — the
  // paper's observation that both schemes share the same static power.
  EventCounts a;
  a.accesses = 500;
  a.dram_read_hits = 500;
  a.page_factor = 64;
  EventCounts b_counts;
  b_counts.accesses = 500;
  b_counts.nvm_write_hits = 400;
  b_counts.dram_read_hits = 100;
  b_counts.page_factor = 64;
  const auto pa = appr(a, gig_params(), 2.0);
  const auto pb = appr(b_counts, gig_params(), 2.0);
  EXPECT_DOUBLE_EQ(pa.static_nj, pb.static_nj);
  EXPECT_NE(pa.hit_nj, pb.hit_nj);
}

TEST(PowerModel, NvmStaticAdvantage) {
  // Same capacity as NVM consumes 10x less static power (Table IV).
  ModelParams dram_only;
  dram_only.dram_bytes = kGiB;
  dram_only.nvm_bytes = 0;
  ModelParams nvm_only;
  nvm_only.dram_bytes = 0;
  nvm_only.nvm_bytes = kGiB;
  EXPECT_DOUBLE_EQ(dram_only.total_static_power(), 1.0);
  EXPECT_DOUBLE_EQ(nvm_only.total_static_power(), 0.1);
}

TEST(WhatIf, NvmWriteEnergyAffectsPowerNotLatency) {
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
  ModelParams cheap = gig_params();
  cheap.nvm.write_energy_nj = 16;
  ModelParams dear = cheap;
  dear.nvm.write_energy_nj = 64;
  EXPECT_DOUBLE_EQ(amat(c, cheap).total(), amat(c, dear).total());
  EXPECT_LT(appr(c, cheap, 1.0).total(), appr(c, dear, 1.0).total());
}

TEST(PowerModel, NegativeDurationRejected) {
  EventCounts c;
  c.accesses = 1;
  c.dram_read_hits = 1;
  EXPECT_THROW(appr(c, gig_params(), -1.0), std::logic_error);
}

TEST(PowerModel, EmptyRunYieldsZeroBreakdown) {
  // Zero-access windows happen under epoch sampling; Eq. 2 degrades to an
  // all-zero breakdown instead of aborting the process.
  EventCounts c;
  const auto breakdown = appr(c, gig_params(), 1.0);
  EXPECT_DOUBLE_EQ(breakdown.total(), 0.0);
  EXPECT_DOUBLE_EQ(breakdown.static_nj, 0.0);
}

}  // namespace
}  // namespace hymem::model
