#include "check/sampled_invariants.hpp"

#include <cstddef>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "check/fuzzer.hpp"
#include "os/vmm.hpp"
#include "trace/interner.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace hymem::check {

void check_invariants(const sample::SampledLruPolicy& policy) {
  const os::Vmm& vmm = policy.vmm();
  const sample::TierQueue& dram = policy.queue(Tier::kDram);
  const sample::TierQueue& nvm = policy.queue(Tier::kNvm);

  // Queue membership: disjoint, and each page resident in the matching
  // tier. Together with the size checks below this is set equality with
  // the VMM's residency — no page can be in both tiers.
  std::unordered_set<PageId> dram_pages;
  dram_pages.reserve(dram.size());
  std::size_t dram_seen = 0;
  dram.for_each([&](PageId page) {
    ++dram_seen;
    HYMEM_CHECK_MSG(dram_pages.insert(page).second,
                    "page listed twice in the DRAM queue");
    HYMEM_CHECK_MSG(vmm.tier_of(page) == Tier::kDram,
                    "DRAM-queued page is not DRAM-resident");
  });
  std::size_t nvm_seen = 0;
  nvm.for_each([&](PageId page) {
    ++nvm_seen;
    HYMEM_CHECK_MSG(!dram_pages.contains(page),
                    "page tracked by both tier queues");
    HYMEM_CHECK_MSG(vmm.tier_of(page) == Tier::kNvm,
                    "NVM-queued page is not NVM-resident");
  });
  HYMEM_CHECK_MSG(dram_seen == dram.size(),
                  "DRAM queue list length disagrees with its index");
  HYMEM_CHECK_MSG(nvm_seen == nvm.size(),
                  "NVM queue list length disagrees with its index");
  HYMEM_CHECK_MSG(dram.size() == vmm.resident(Tier::kDram),
                  "DRAM queue does not cover DRAM residency");
  HYMEM_CHECK_MSG(nvm.size() == vmm.resident(Tier::kNvm),
                  "NVM queue does not cover NVM residency");

  // Ring occupancy within capacity: full rings drop, they never grow.
  HYMEM_CHECK_MSG(policy.hot_ring().size() <= policy.hot_ring().capacity(),
                  "hot ring occupancy exceeds its capacity");
  HYMEM_CHECK_MSG(policy.cold_ring().size() <= policy.cold_ring().capacity(),
                  "cold ring occupancy exceeds its capacity");

  // Migration rate: the last drain applied at most the configured budget.
  const std::uint64_t budget = policy.config().migration_budget;
  if (budget > 0) {
    HYMEM_CHECK_MSG(policy.last_drain_ops() <= budget,
                    "drain applied more candidates than the budget allows");
  }

  // Mechanism-layer ledgers (allocators, endurance vs device/DMA counters).
  vmm.check_consistency();
}

namespace {

/// Sampling tunables from the same seed, on a stream distinct from the
/// fuzzer's trace/shape derivation. Small periods and rings so even short
/// fuzz traces exercise crossings, drops, cooling and drains.
sample::SampleConfig sample_config_for(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0xA5F152ED1E6B3C9DULL;
  sample::SampleConfig cfg;
  cfg.sample_period = 1 + splitmix64(s) % 8;
  cfg.ring_capacity = 4ULL << (splitmix64(s) % 4);  // 4..32
  cfg.hot_threshold = 1 + splitmix64(s) % 4;
  cfg.cold_threshold = 1 + splitmix64(s) % cfg.hot_threshold;
  cfg.cooling_period = 16 + splitmix64(s) % 64;
  cfg.drain_period = 8 + splitmix64(s) % 64;
  cfg.migration_budget = splitmix64(s) % 4;  // 0 = unlimited
  return cfg;
}

SampledFuzzOutcome replay(const FuzzCase& fc, const sample::SampleConfig& scfg,
                          bool audit_every_access) {
  os::VmmConfig vcfg;
  vcfg.dram_frames = fc.dram_frames;
  vcfg.nvm_frames = fc.nvm_frames;
  os::Vmm vmm(vcfg);
  sample::SampledLruPolicy policy(vmm, scfg);

  const trace::PageIdInterner interner(fc.trace, vcfg.page_size);
  const std::span<const PageId> pages = interner.pages();
  const std::span<const trace::MemAccess> accesses = fc.trace.accesses();
  SampledFuzzOutcome out;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    policy.on_access(pages[i], accesses[i].type);
    if (audit_every_access) check_invariants(policy);
  }
  check_invariants(policy);
  out.accesses = pages.size();
  out.stats = policy.sampled_stats();
  out.dram_resident = vmm.resident(Tier::kDram);
  out.nvm_resident = vmm.resident(Tier::kNvm);
  return out;
}

void expect_equal(std::uint64_t a, std::uint64_t b, const char* what) {
  if (a != b) {
    std::ostringstream os;
    os << "sampled fuzz replay diverged on " << what << ": " << a << " vs "
       << b << " (virtual-time mode must be deterministic)";
    throw std::logic_error(os.str());
  }
}

}  // namespace

SampledFuzzOutcome run_sampled_fuzz_case(std::uint64_t seed,
                                         std::size_t accesses) {
  const FuzzCase fc = make_fuzz_case(seed, accesses);
  const sample::SampleConfig scfg = sample_config_for(seed);

  std::ostringstream describe;
  describe << fc.describe() << " sample{period=" << scfg.sample_period
           << " ring=" << scfg.ring_capacity << " hot=" << scfg.hot_threshold
           << " cold=" << scfg.cold_threshold
           << " cooling=" << scfg.cooling_period
           << " drain=" << scfg.drain_period
           << " budget=" << scfg.migration_budget << "}";

  SampledFuzzOutcome first = replay(fc, scfg, /*audit_every_access=*/true);
  first.describe = describe.str();

  // Determinism oracle: a fresh second replay (no per-access audit — the
  // audit itself must not affect behavior either) must land on identical
  // state and stats.
  const SampledFuzzOutcome second =
      replay(fc, scfg, /*audit_every_access=*/false);
  expect_equal(first.accesses, second.accesses, "access count");
  expect_equal(first.dram_resident, second.dram_resident, "DRAM residency");
  expect_equal(first.nvm_resident, second.nvm_resident, "NVM residency");
  expect_equal(first.stats.samples, second.stats.samples, "samples");
  expect_equal(first.stats.sample_drops, second.stats.sample_drops,
               "sample drops");
  expect_equal(first.stats.coolings, second.stats.coolings, "coolings");
  expect_equal(first.stats.hot_ring_hwm, second.stats.hot_ring_hwm,
               "hot ring high water");
  expect_equal(first.stats.cold_ring_hwm, second.stats.cold_ring_hwm,
               "cold ring high water");
  expect_equal(first.stats.promotions, second.stats.promotions, "promotions");
  expect_equal(first.stats.demotions, second.stats.demotions, "demotions");
  expect_equal(first.stats.stale_candidates, second.stats.stale_candidates,
               "stale candidates");
  expect_equal(first.stats.migration_copies, second.stats.migration_copies,
               "migration copies");
  expect_equal(first.stats.drains, second.stats.drains, "drains");
  expect_equal(first.stats.backlog, second.stats.backlog, "backlog");
  return first;
}

}  // namespace hymem::check
