#include "policy/static_partition.hpp"

#include "util/check.hpp"
#include "util/random.hpp"

namespace hymem::policy {

StaticPartitionPolicy::StaticPartitionPolicy(os::Vmm& vmm)
    : HybridPolicy(vmm),
      dram_(static_cast<std::size_t>(vmm.frames(Tier::kDram))),
      nvm_(static_cast<std::size_t>(vmm.frames(Tier::kNvm))) {
  HYMEM_CHECK_MSG(vmm.frames(Tier::kDram) > 0 && vmm.frames(Tier::kNvm) > 0,
                  "static partition needs both modules populated");
  dram_share_permille_ =
      1000 * vmm.frames(Tier::kDram) / vmm.config().total_frames();
}

Tier StaticPartitionPolicy::home(PageId page) const {
  std::uint64_t s = page;
  return splitmix64(s) % 1000 < dram_share_permille_ ? Tier::kDram : Tier::kNvm;
}

Served StaticPartitionPolicy::serve(PageId page, std::uint64_t /*hash*/,
                                    AccessType type) {
  const Tier tier = home(page);
  LruPolicy& lru = tier == Tier::kDram ? dram_ : nvm_;
  if (const auto resident = vmm_.access_if_resident(page, type)) {
    lru.on_hit(page, type);
    return {resident->latency, Demand::kNone};
  }
  if (lru.full()) {
    const auto victim = lru.select_victim();
    HYMEM_CHECK(victim.has_value());
    lru.erase(*victim);
    vmm_.evict(*victim);
  }
  const Nanoseconds latency = vmm_.fault_in(page, tier);
  lru.insert(page, type);
  if (type == AccessType::kWrite) vmm_.touch_dirty(page);
  return {latency, Demand::kNone};
}

Nanoseconds StaticPartitionPolicy::on_access(PageId page, AccessType type) {
  return serve_one(*this, page, type);
}

Nanoseconds StaticPartitionPolicy::on_block(const AccessBlock& block) {
  return serve_block(*this, block);
}

}  // namespace hymem::policy
