// The invariant checker must pass on healthy runs of any shape and throw on
// genuinely corrupted state. We corrupt by driving the VMM behind the
// policy's back — the supported mutation surface — rather than by friending
// into private state.
#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include "check/fuzzer.hpp"
#include "os/vmm.hpp"
#include "trace/access.hpp"
#include "util/units.hpp"

namespace hymem::check {
namespace {

os::VmmConfig hybrid_config(std::uint64_t dram, std::uint64_t nvm) {
  os::VmmConfig c;
  c.dram_frames = dram;
  c.nvm_frames = nvm;
  return c;
}

core::MigrationConfig scheme_config() {
  core::MigrationConfig c;
  c.read_threshold = 1;
  c.write_threshold = 2;
  c.read_perc = 0.5;
  c.write_perc = 0.75;
  return c;
}

TEST(Invariants, HoldAfterEveryAccessOfAFuzzedRun) {
  const FuzzCase fc = make_fuzz_case(/*seed=*/42, /*accesses=*/3000);
  os::Vmm vmm(hybrid_config(fc.dram_frames, fc.nvm_frames));
  core::TwoLruMigrationPolicy policy(vmm, fc.migration);
  for (const trace::MemAccess& a : fc.trace) {
    policy.on_access(trace::page_of(a.addr, kDefaultPageSize), a.type);
    EXPECT_NO_THROW(check_invariants(policy));
  }
}

TEST(Invariants, DetectEvictionBehindThePolicysBack) {
  os::Vmm vmm(hybrid_config(2, 4));
  core::TwoLruMigrationPolicy policy(vmm, scheme_config());
  policy.on_access(0, AccessType::kRead);
  policy.on_access(1, AccessType::kRead);
  ASSERT_NO_THROW(check_invariants(policy));
  // Page 0 is still in the policy's DRAM queue but no longer resident.
  policy.vmm().evict(0);
  EXPECT_THROW(check_invariants(policy), std::logic_error);
}

TEST(Invariants, DetectMigrationBehindThePolicysBack) {
  os::Vmm vmm(hybrid_config(2, 4));
  core::TwoLruMigrationPolicy policy(vmm, scheme_config());
  policy.on_access(0, AccessType::kRead);
  policy.on_access(1, AccessType::kRead);
  // Page 0 now sits in NVM per the VMM but in the DRAM queue per the policy.
  policy.vmm().migrate(0, Tier::kNvm);
  EXPECT_THROW(check_invariants(policy), std::logic_error);
}

TEST(Invariants, VmmSelfAuditPassesThroughAWholeLifecycle) {
  os::Vmm vmm(hybrid_config(1, 1));
  EXPECT_NO_THROW(vmm.check_consistency());
  vmm.fault_in(7, Tier::kDram);
  vmm.access(7, AccessType::kWrite);
  EXPECT_NO_THROW(vmm.check_consistency());
  vmm.migrate(7, Tier::kNvm);
  EXPECT_NO_THROW(vmm.check_consistency());
  vmm.fault_in(8, Tier::kDram);
  vmm.swap(7, 8);
  EXPECT_NO_THROW(vmm.check_consistency());
  vmm.evict(7);
  vmm.evict(8);
  EXPECT_NO_THROW(vmm.check_consistency());
}

}  // namespace
}  // namespace hymem::check
