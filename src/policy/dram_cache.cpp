#include "policy/dram_cache.hpp"

#include "util/check.hpp"

namespace hymem::policy {

DramCachePolicy::DramCachePolicy(os::Vmm& vmm)
    : HybridPolicy(vmm),
      dram_(static_cast<std::size_t>(vmm.frames(Tier::kDram))),
      nvm_(static_cast<std::size_t>(vmm.frames(Tier::kNvm))) {
  HYMEM_CHECK_MSG(vmm.frames(Tier::kDram) > 0 && vmm.frames(Tier::kNvm) > 0,
                  "dram-cache needs both modules populated");
}

Nanoseconds DramCachePolicy::make_dram_room() {
  const auto victim = dram_.select_victim();
  HYMEM_CHECK_MSG(victim.has_value(), "DRAM LRU empty while full");
  if (!vmm_.has_free_frame(Tier::kNvm)) {
    const auto nvm_victim = nvm_.select_victim();
    HYMEM_CHECK(nvm_victim.has_value());
    nvm_.erase(*nvm_victim);
    vmm_.evict(*nvm_victim);
  }
  dram_.erase(*victim);
  const Nanoseconds latency = vmm_.migrate(*victim, Tier::kNvm);
  nvm_.insert(*victim, AccessType::kRead);
  return latency;
}

Served DramCachePolicy::serve(PageId page, std::uint64_t hash,
                              AccessType type) {
  if (os::PageTableEntry* entry = vmm_.entry_hashed(page, hash)) {
    const Tier tier = entry->tier();
    Served served = serve_hit(*entry, type);
    if (tier == Tier::kDram) {
      dram_.on_hit(page, type);
      return served;
    }
    // Served from NVM; promote unconditionally.
    if (vmm_.has_free_frame(Tier::kDram)) {
      nvm_.erase(page);
      served.latency += vmm_.migrate(page, Tier::kDram);
    } else {
      const auto victim = dram_.select_victim();
      HYMEM_CHECK(victim.has_value());
      dram_.erase(*victim);
      nvm_.erase(page);
      served.latency += vmm_.swap(page, *victim);
      nvm_.insert(*victim, AccessType::kRead);
    }
    dram_.insert(page, type);
    return served;
  }
  // Page fault: fill DRAM (hot front), demoting as needed.
  Nanoseconds latency = 0;
  if (!vmm_.has_free_frame(Tier::kDram)) latency += make_dram_room();
  latency += vmm_.fault_in(page, Tier::kDram);
  dram_.insert(page, type);
  if (type == AccessType::kWrite) vmm_.touch_dirty(page);
  return {latency, Demand::kNone};
}

Nanoseconds DramCachePolicy::on_block(const AccessBlock& block) {
  return serve_block(*this, block);
}

}  // namespace hymem::policy
