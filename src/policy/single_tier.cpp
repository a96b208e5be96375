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

Nanoseconds SingleTierPolicy::on_block(const AccessBlock& block) {
  return serve_block(*this, block);
}

void SingleTierPolicy::publish_dirty() {
  lru_.for_each_dirty([this](PageId page) { vmm_.touch_dirty(page); });
}

}  // namespace hymem::policy
