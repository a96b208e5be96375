// The analytic estimator (model/analytic) evaluates Eq. 1 / Eq. 2 / the
// endurance accounting through the probability-form overloads; the replay
// path evaluates the counts form. These agreement tests are what licenses
// keeping exactly one home per formula: on shared inputs the two forms are
// the same expression regrouped, so they must match to round-off.
#include <gtest/gtest.h>

#include "mem/dma.hpp"
#include "model/endurance_model.hpp"
#include "model/perf_model.hpp"
#include "model/power_model.hpp"
#include "model/probabilities.hpp"

namespace hymem::model {
namespace {

EventCounts sample_counts() {
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

ModelParams base_params() {
  ModelParams p;
  p.page_factor = 64;
  p.dram_bytes = 1 << 20;
  p.nvm_bytes = 10 << 20;
  return p;
}

TEST(FormAgreement, AmatCountsAndProbabilityFormsMatch) {
  EventCounts c = sample_counts();
  c.dram_write_hits = 12;
  c.fills_to_nvm = 3;
  ModelParams p = base_params();
  p.page_factor = c.page_factor;
  const AmatBreakdown from_counts = amat(c, p);
  const AmatBreakdown from_probs = amat(probabilities(c), p);
  EXPECT_NEAR(from_probs.hit_ns, from_counts.hit_ns,
              1e-12 * from_counts.hit_ns);
  EXPECT_NEAR(from_probs.fault_ns, from_counts.fault_ns,
              1e-12 * from_counts.fault_ns);
  EXPECT_NEAR(from_probs.migration_ns, from_counts.migration_ns,
              1e-12 * from_counts.migration_ns);
}

TEST(FormAgreement, AmatFormsMatchUnderIntegratedTransferMode) {
  const EventCounts c = sample_counts();
  ModelParams p = base_params();
  p.page_factor = c.page_factor;
  p.transfer_mode = mem::TransferMode::kIntegrated;
  const AmatBreakdown from_counts = amat(c, p);
  const AmatBreakdown from_probs = amat(probabilities(c), p);
  EXPECT_NEAR(from_probs.migration_ns, from_counts.migration_ns,
              1e-12 * from_counts.migration_ns);
}

TEST(FormAgreement, ApprCountsAndProbabilityFormsMatch) {
  EventCounts c = sample_counts();
  c.fills_to_nvm = 4;
  c.fills_to_dram = 6;
  ModelParams p = base_params();
  p.page_factor = c.page_factor;
  const double duration_s = 2.5;
  const PowerBreakdown from_counts = appr(c, p, duration_s);
  const PowerBreakdown from_probs = appr(
      probabilities(c), p, duration_s, static_cast<double>(c.accesses));
  EXPECT_NEAR(from_probs.hit_nj, from_counts.hit_nj,
              1e-12 * from_counts.hit_nj);
  EXPECT_NEAR(from_probs.fault_fill_nj, from_counts.fault_fill_nj,
              1e-12 * from_counts.fault_fill_nj);
  EXPECT_NEAR(from_probs.migration_nj, from_counts.migration_nj,
              1e-12 * from_counts.migration_nj);
  EXPECT_DOUBLE_EQ(from_probs.static_nj, from_counts.static_nj);
}

TEST(FormAgreement, NvmWriteCountsAndProbabilityFormsMatch) {
  EventCounts c = sample_counts();
  c.fills_to_nvm = 4;
  c.fills_to_dram = 6;
  const double per_access =
      nvm_writes_per_access(probabilities(c), c.page_factor);
  const double total_from_counts =
      static_cast<double>(nvm_writes(c).total());
  EXPECT_NEAR(per_access * static_cast<double>(c.accesses),
              total_from_counts, 1e-9 * total_from_counts);
}

}  // namespace
}  // namespace hymem::model
