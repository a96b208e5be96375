#include "check/invariants.hpp"

#include <unordered_set>

#include "util/check.hpp"
#include "util/fraction.hpp"

namespace hymem::check {

void check_invariants(const core::TwoLruMigrationPolicy& policy) {
  const core::DramLruQueue& dram = policy.dram_queue();
  const core::CountedLruQueue& nvm = policy.nvm_queue();
  const os::Vmm& vmm = policy.vmm();

  // Queue sizes within capacity.
  HYMEM_CHECK_MSG(dram.size() <= dram.capacity(),
                  "DRAM queue grew past its capacity");
  HYMEM_CHECK_MSG(nvm.size() <= nvm.capacity(),
                  "NVM queue grew past its capacity");

  // Window targets derive from the configured fractions via the shared
  // round-off-safe rule (0.07 * 100 must give 7, not 8).
  const core::MigrationConfig& cfg = policy.config();
  const auto target = [&](double perc) {
    return util::snap_ceil_fraction(perc, nvm.capacity());
  };
  HYMEM_CHECK_MSG(nvm.read_window_target() == target(cfg.read_perc),
                  "read window target disagrees with readperc");
  HYMEM_CHECK_MSG(nvm.write_window_target() == target(cfg.write_perc),
                  "write window target disagrees with writeperc");

  // Window membership is exactly the configured prefix of the LRU order and
  // counters outside are reset.
  nvm.check_invariants();

  // Queue membership: disjoint, and each page resident in the matching
  // tier.
  std::unordered_set<PageId> dram_pages;
  dram_pages.reserve(dram.size());
  dram.for_each_mru_to_lru([&](PageId page) {
    HYMEM_CHECK_MSG(dram_pages.insert(page).second,
                    "page listed twice in the DRAM queue");
    HYMEM_CHECK_MSG(vmm.tier_of(page) == Tier::kDram,
                    "DRAM-queued page is not DRAM-resident");
  });
  std::size_t nvm_seen = 0;
  nvm.for_each_mru_to_lru([&](PageId page) {
    ++nvm_seen;
    HYMEM_CHECK_MSG(!dram_pages.contains(page),
                    "page resident in both queues");
    HYMEM_CHECK_MSG(vmm.tier_of(page) == Tier::kNvm,
                    "NVM-queued page is not NVM-resident");
  });
  HYMEM_CHECK_MSG(nvm_seen == nvm.size(),
                  "NVM queue list length disagrees with its index");

  // The queues exactly cover the VMM's residency per tier (same sizes plus
  // the per-page tier checks above gives set equality).
  HYMEM_CHECK_MSG(dram.size() == vmm.resident(Tier::kDram),
                  "DRAM queue does not cover DRAM residency");
  HYMEM_CHECK_MSG(nvm.size() == vmm.resident(Tier::kNvm),
                  "NVM queue does not cover NVM residency");

  // Mechanism-layer ledgers (allocators, endurance vs device/DMA counters,
  // NVM physical-write identity).
  vmm.check_consistency();
}

}  // namespace hymem::check
