#include "model/analytic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "trace/reuse_distance.hpp"
#include "util/fraction.hpp"

namespace hymem::model {
namespace {

// A deterministic mixture with structure at several reuse distances: 8 hot
// pages cycled every iteration (short gaps, read/write mix), a 64-page scan
// touched in rotating 16-page stripes (medium gaps) and a long cold tail.
trace::ReuseProfile mixed_profile() {
  trace::ReuseDistanceAnalyzer analyzer(/*page_size=*/1);
  for (int rep = 0; rep < 400; ++rep) {
    for (std::uint64_t p = 0; p < 8; ++p) {
      analyzer.observe(p,
                       rep % 3 == 0 ? AccessType::kWrite : AccessType::kRead);
    }
    const auto stripe = static_cast<std::uint64_t>(100 + (rep % 4) * 16);
    for (std::uint64_t p = stripe; p < stripe + 16; ++p) {
      analyzer.observe(p,
                       p % 5 == 0 ? AccessType::kWrite : AccessType::kRead);
    }
    analyzer.observe(10000 + static_cast<std::uint64_t>(rep));  // cold tail
  }
  return analyzer.profile();
}

AnalyticConfig two_tier_config(std::uint64_t dram = 16,
                               std::uint64_t nvm = 64) {
  AnalyticConfig cfg;
  cfg.dram_frames = dram;
  cfg.nvm_frames = nvm;
  cfg.params.page_factor = 64;
  cfg.params.dram_bytes = dram * 4096;
  cfg.params.nvm_bytes = nvm * 4096;
  cfg.duration_s = 1.0;
  return cfg;
}

TEST(Analytic, EmptyProfileYieldsAllZeroEstimate) {
  const trace::ReuseProfile empty;
  const AnalyticEstimate e = estimate(empty, two_tier_config());
  EXPECT_EQ(e.hit_ratio, 0.0);
  EXPECT_EQ(e.probs.hit_dram, 0.0);
  EXPECT_EQ(e.probs.miss, 0.0);
  EXPECT_EQ(e.nvm_writes_per_access, 0.0);
  EXPECT_EQ(e.iterations, 0);
}

TEST(Analytic, SingleTierHitRatioIsExactlyTheCdf) {
  const trace::ReuseProfile profile = mixed_profile();
  for (const std::uint64_t capacity : {4u, 8u, 9u, 24u, 88u, 200u}) {
    AnalyticConfig dram_only = two_tier_config(capacity, 0);
    const AnalyticEstimate d = estimate(profile, dram_only);
    EXPECT_NEAR(d.hit_ratio, profile.lru_hit_ratio(capacity), 1e-12)
        << "dram-only capacity " << capacity;
    EXPECT_EQ(d.probs.hit_nvm, 0.0);
    EXPECT_TRUE(d.probs.is_consistent());

    AnalyticConfig nvm_only = two_tier_config(0, capacity);
    const AnalyticEstimate n = estimate(profile, nvm_only);
    EXPECT_NEAR(n.hit_ratio, profile.lru_hit_ratio(capacity), 1e-12)
        << "nvm-only capacity " << capacity;
    EXPECT_EQ(n.probs.hit_dram, 0.0);
    EXPECT_TRUE(n.probs.is_consistent());
  }
}

TEST(Analytic, TwoTierEstimateIsConsistent) {
  const trace::ReuseProfile profile = mixed_profile();
  const AnalyticEstimate e = estimate(profile, two_tier_config());
  EXPECT_TRUE(e.probs.is_consistent());
  // The combined hit ratio is the global-LRU CDF at Cd + Cn, exactly.
  EXPECT_NEAR(e.hit_ratio, profile.lru_hit_ratio(16 + 64), 1e-12);
  EXPECT_GE(e.probs.hit_dram, 0.0);
  EXPECT_GE(e.probs.hit_nvm, 0.0);
  EXPECT_GT(e.probs.miss, 0.0);  // the cold tail always misses
  EXPECT_GT(e.amat.total(), 0.0);
  EXPECT_GT(e.power.total(), 0.0);
  EXPECT_GT(e.nvm_writes_per_access, 0.0);
  EXPECT_GT(e.lifetime_s, 0.0);
  EXPECT_TRUE(std::isfinite(e.lifetime_s));
  EXPECT_GT(e.effective_dram_frames, 0.0);
  EXPECT_GT(e.iterations, 0);
}

TEST(Analytic, ZeroThresholdPromotesMoreThanHugeThreshold) {
  const trace::ReuseProfile profile = mixed_profile();
  AnalyticConfig eager = two_tier_config();
  eager.migration.read_threshold = 0;
  eager.migration.write_threshold = 0;
  AnalyticConfig reluctant = two_tier_config();
  reluctant.migration.read_threshold = 1000;
  reluctant.migration.write_threshold = 1000;
  const AnalyticEstimate e = estimate(profile, eager);
  const AnalyticEstimate r = estimate(profile, reluctant);
  EXPECT_GT(e.probs.mig_to_dram, r.probs.mig_to_dram);
  EXPECT_EQ(e.promotion_rate_read, 1.0);  // threshold 0: first hit promotes
  EXPECT_NEAR(r.probs.mig_to_dram, 0.0, 1e-9);
}

TEST(Analytic, PromotionCapBoundsMigrationRate) {
  const trace::ReuseProfile profile = mixed_profile();
  AnalyticConfig capped = two_tier_config();
  capped.migration.read_threshold = 0;
  capped.migration.write_threshold = 0;
  capped.migration.max_promotions_per_kacc = 1;
  const AnalyticEstimate e = estimate(profile, capped);
  EXPECT_LE(e.probs.mig_to_dram, 1.0 / 1000.0 + 1e-12);
}

TEST(Analytic, ZeroWidthWindowNeverPromotes) {
  const trace::ReuseProfile profile = mixed_profile();
  AnalyticConfig cfg = two_tier_config();
  cfg.migration.read_perc = 0.0;
  cfg.migration.write_perc = 0.0;
  const AnalyticEstimate e = estimate(profile, cfg);
  EXPECT_EQ(e.probs.mig_to_dram, 0.0);
  EXPECT_EQ(e.promotion_rate_read, 0.0);
  EXPECT_EQ(e.promotion_rate_write, 0.0);
}

TEST(Analytic, WindowSnappingMatchesCountedLruQueue) {
  // Fractions that snap to the same integer window must give identical
  // estimates — the estimator shares util::snap_ceil_fraction with
  // core::CountedLruQueue, so there is no way for the two to drift.
  const trace::ReuseProfile profile = mixed_profile();
  AnalyticConfig a = two_tier_config(16, 100);
  a.migration.read_perc = 0.101;
  AnalyticConfig b = two_tier_config(16, 100);
  b.migration.read_perc = 0.11;
  ASSERT_EQ(util::snap_ceil_fraction(a.migration.read_perc, 100u),
            util::snap_ceil_fraction(b.migration.read_perc, 100u));
  const AnalyticEstimate ea = estimate(profile, a);
  const AnalyticEstimate eb = estimate(profile, b);
  EXPECT_DOUBLE_EQ(ea.probs.hit_dram, eb.probs.hit_dram);
  EXPECT_DOUBLE_EQ(ea.probs.mig_to_dram, eb.probs.mig_to_dram);
  EXPECT_DOUBLE_EQ(ea.amat.total(), eb.amat.total());
}

TEST(Analytic, ThresholdBiasMovesThePromotionTerm) {
  const trace::ReuseProfile profile = mixed_profile();
  AnalyticConfig cfg = two_tier_config();
  cfg.migration.read_threshold = 8;
  cfg.migration.write_threshold = 12;
  const AnalyticEstimate base = estimate(profile, cfg);
  AnalyticBias promote_everything;
  promote_everything.threshold_bias = -12;  // both thresholds clamp to 0
  const AnalyticEstimate biased = estimate(profile, cfg, promote_everything);
  EXPECT_GT(biased.probs.mig_to_dram, base.probs.mig_to_dram);
  EXPECT_EQ(biased.promotion_rate_read, 1.0);
}

TEST(Analytic, CapacityScaleBiasMovesTheDramSplitNotTheHitRatio) {
  const trace::ReuseProfile profile = mixed_profile();
  const AnalyticConfig cfg = two_tier_config();
  const AnalyticEstimate base = estimate(profile, cfg);
  AnalyticBias inflate;
  inflate.dram_capacity_scale = 64.0;
  const AnalyticEstimate biased = estimate(profile, cfg, inflate);
  EXPECT_GT(biased.probs.hit_dram, base.probs.hit_dram);
  // The combined hit ratio is set by total capacity, not the tier split.
  EXPECT_NEAR(biased.hit_ratio, base.hit_ratio, 1e-12);
}

TEST(Analytic, EstimateIsDeterministic) {
  const trace::ReuseProfile profile = mixed_profile();
  const AnalyticConfig cfg = two_tier_config();
  const AnalyticEstimate a = estimate(profile, cfg);
  const AnalyticEstimate b = estimate(profile, cfg);
  EXPECT_EQ(a.probs.hit_dram, b.probs.hit_dram);
  EXPECT_EQ(a.probs.mig_to_dram, b.probs.mig_to_dram);
  EXPECT_EQ(a.amat.total(), b.amat.total());
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Analytic, ThresholdSweepIsMonotoneInPromotions) {
  const trace::ReuseProfile profile = mixed_profile();
  AnalyticConfig cfg = two_tier_config();
  double previous = std::numeric_limits<double>::infinity();
  for (const std::uint64_t threshold : {0u, 2u, 8u, 32u, 128u}) {
    cfg.migration.read_threshold = threshold;
    const double rate = estimate(profile, cfg).promotion_rate_read;
    EXPECT_LE(rate, previous) << "read threshold " << threshold;
    previous = rate;
  }
}

TEST(Analytic, LifetimeIsInfiniteWithoutNvmWrites) {
  const trace::ReuseProfile profile = mixed_profile();
  // dram-only never writes NVM.
  const AnalyticEstimate e = estimate(profile, two_tier_config(64, 0));
  EXPECT_EQ(e.nvm_writes_per_access, 0.0);
  EXPECT_EQ(e.lifetime_s, std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace hymem::model
