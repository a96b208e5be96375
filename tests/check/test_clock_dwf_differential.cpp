// The CLOCK-DWF acceptance gate: ClockDwfPolicy and the naive oracle in
// check/clock_dwf_reference replayed in lockstep must never diverge, and an
// oracle whose DRAM clock also takes reference bits from reads (the
// permanent mutation check) must always be caught and shrunk.
#include <gtest/gtest.h>

#include "check/clock_dwf_reference.hpp"
#include "check/differential.hpp"
#include "util/units.hpp"

namespace hymem::check {
namespace {

DwfDiffSpec tiny_spec() {
  DwfDiffSpec spec;
  spec.dram_frames = 2;
  spec.nvm_frames = 4;
  spec.deep_diff_stride = 1;
  return spec;
}

trace::Trace busy_trace(std::size_t rounds) {
  // Write faults, read faults, forced promotions into a full DRAM, NVM
  // evictions of dirty demoted pages and DRAM read hits on the tiny shape.
  trace::Trace t("busy");
  for (std::size_t r = 0; r < rounds; ++r) {
    for (PageId p = 0; p < 9; ++p) {
      t.append(p * kDefaultPageSize,
               (r + p) % 3 == 0 ? AccessType::kWrite : AccessType::kRead);
    }
    t.append(((r * 5) % 9) * kDefaultPageSize, AccessType::kRead);
    t.append(((r * 7) % 9) * kDefaultPageSize, AccessType::kWrite);
  }
  return t;
}

TEST(ClockDwfReference, PlacesFaultsByTypeOnceDramIsFull) {
  ClockDwfReference model(/*dram_frames=*/1, /*nvm_frames=*/2,
                          /*page_factor=*/64);
  // Spare DRAM absorbs the first fault whatever its type.
  EXPECT_EQ(model.on_access(1, AccessType::kRead).outcome,
            DwfOutcome::kFaultToDram);
  EXPECT_EQ(model.on_access(2, AccessType::kRead).outcome,
            DwfOutcome::kFaultToNvm);
  const DwfDecision write = model.on_access(3, AccessType::kWrite);
  EXPECT_EQ(write.outcome, DwfOutcome::kFaultToDram);
  EXPECT_EQ(write.demoted, PageId{1});
  EXPECT_EQ(model.tier_of(1), Tier::kNvm);
}

TEST(ClockDwfReference, WriteToNvmPagePromotesAndSwaps) {
  ClockDwfReference model(1, 2, 64);
  model.on_access(1, AccessType::kWrite);
  model.on_access(2, AccessType::kRead);
  const DwfDecision d = model.on_access(2, AccessType::kWrite);
  EXPECT_EQ(d.outcome, DwfOutcome::kPromotion);
  EXPECT_EQ(d.demoted, PageId{1});
  EXPECT_EQ(model.tier_of(2), Tier::kDram);
  EXPECT_EQ(model.counts().migrations_to_dram, 1u);
  EXPECT_EQ(model.counts().migrations_to_nvm, 1u);
  // The promoted write is served by DRAM: NVM never serves a write.
  EXPECT_EQ(model.counts().nvm_write_hits, 0u);
  EXPECT_EQ(model.counts().dram_write_hits, 1u);
}

TEST(ClockDwfDifferential, HandcraftedChurnRunsClean) {
  const DiffResult r = run_clock_dwf_differential(busy_trace(200), tiny_spec());
  EXPECT_TRUE(r.ok()) << r.divergence->what;
  EXPECT_EQ(r.accesses, busy_trace(200).size());
}

TEST(ClockDwfDifferential, CapacityOneClocksRunClean) {
  DwfDiffSpec spec = tiny_spec();
  spec.dram_frames = 1;
  spec.nvm_frames = 1;
  const DiffResult r = run_clock_dwf_differential(busy_trace(100), spec);
  EXPECT_TRUE(r.ok()) << r.divergence->what;
}

// The acceptance criterion: the differential fuzz shapes (thrash loops,
// write bursts, capacity-1 modules), 8 seeds x 10k accesses, zero
// divergence in decisions, rings, ledgers and model outputs.
TEST(ClockDwfDifferential, FuzzedSeedsProduceZeroDivergence) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzReport report = run_clock_dwf_fuzz_case(seed, 10000);
    EXPECT_TRUE(report.ok()) << report.summary;
    EXPECT_EQ(report.result.accesses, 10000u) << report.fuzz.describe();
  }
}

// Mutation check, always in-tree: an oracle whose DRAM clock also sets the
// reference bit on reads breaks write-history-aware aging. The harness must
// notice, and the shrinker must cut the repro to a handful of accesses (a
// fault and a DRAM read hit are enough for the ring diff to differ).
TEST(ClockDwfDifferential, ReadReferencingOracleIsCaughtAndShrunk) {
  DwfDiffSpec spec = tiny_spec();
  spec.oracle_dram_read_ref = true;
  const DiffResult direct = run_clock_dwf_differential(busy_trace(50), spec);
  ASSERT_FALSE(direct.ok());

  const FuzzReport report =
      run_clock_dwf_fuzz_case(/*seed=*/1, /*accesses=*/3000,
                              /*oracle_dram_read_ref=*/true);
  ASSERT_FALSE(report.ok());
  EXPECT_FALSE(report.minimal.empty());
  EXPECT_LE(report.minimal.size(), 4u) << report.summary;
  EXPECT_NE(report.summary.find("seed="), std::string::npos);
  EXPECT_NE(report.summary.find("repro:"), std::string::npos);
  EXPECT_NE(report.summary.find("run_clock_dwf_differential"),
            std::string::npos);
}

}  // namespace
}  // namespace hymem::check
