#include "policy/single_tier.hpp"

#include "util/check.hpp"

namespace hymem::policy {

SingleTierPolicy::SingleTierPolicy(os::Vmm& vmm, Tier tier)
    : HybridPolicy(vmm),
      tier_(tier),
      lru_(static_cast<std::size_t>(vmm.frames(tier))) {
  HYMEM_CHECK_MSG(vmm.frames(other(tier)) == 0,
                  "single-tier policy requires the other module to be empty");
}

Served SingleTierPolicy::serve(PageId page, std::uint64_t hash,
                               AccessType type) {
  const LruPolicy::Slot* slot = lru_.find(page, hash);
  if (slot == nullptr) return fault(page, type);
  LruPolicy::Node& node = lru_.touch(*slot);
  const bool write = type == AccessType::kWrite;
  if (tier_ == Tier::kDram) {
    node.dirty |= write;  // parked without a branch on the access type
  } else if (write) {
    os::PageTableEntry* entry = vmm_.entry_hashed(page, hash);
    HYMEM_CHECK_MSG(entry != nullptr, "LRU-tracked page is not resident");
    entry->mark_dirty();
    vmm_.note_nvm_demand_write(entry->frame());
  }
  return hit(tier_, type);
}

Served SingleTierPolicy::fault(PageId page, AccessType type) {
  if (lru_.full()) {
    const auto victim = lru_.select_victim();
    HYMEM_CHECK_MSG(victim.has_value(), "full policy produced no victim");
    // Publish the parked dirty bit: eviction pages out dirty pages.
    if (lru_.erase(*victim)) vmm_.touch_dirty(*victim);
    vmm_.evict(*victim);
  }
  const Nanoseconds latency = vmm_.fault_in(page, tier_);
  lru_.insert(page, type);
  if (type == AccessType::kWrite) vmm_.touch_dirty(page);
  return {latency, Demand::kNone};
}

Nanoseconds SingleTierPolicy::on_access(PageId page, AccessType type) {
  return serve_one(*this, page, type);
}

Nanoseconds SingleTierPolicy::on_block(const AccessBlock& block) {
  return serve_block(*this, block);
}

void SingleTierPolicy::publish_dirty() {
  lru_.for_each_dirty([this](PageId page) { vmm_.touch_dirty(page); });
}

}  // namespace hymem::policy
