#include "policy/rank_mq.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace hymem::policy {

RankMqPolicy::RankMqPolicy(os::Vmm& vmm, unsigned promote_level,
                           std::uint64_t lifetime)
    : HybridPolicy(vmm),
      promote_level_(promote_level),
      lifetime_(lifetime),
      ring_(static_cast<std::size_t>(vmm.frames(Tier::kDram) +
                                     vmm.frames(Tier::kNvm)),
            2 * kLevels) {
  HYMEM_CHECK_MSG(vmm.frames(Tier::kDram) > 0 && vmm.frames(Tier::kNvm) > 0,
                  "rank-mq needs both modules populated");
  HYMEM_CHECK(promote_level < kLevels);
  HYMEM_CHECK(lifetime > 0);
}

unsigned RankMqPolicy::level_of(std::uint64_t count) {
  if (count == 0) return 0;
  const auto level = static_cast<unsigned>(std::bit_width(count) - 1);
  return std::min(level, kLevels - 1);
}

void RankMqPolicy::requeue(Slot slot) {
  RankFields& node = ring_.node(slot);
  node.level = level_of(node.count);
  ring_.move_to_front(slot, queue(node.tier, node.level));
}

std::optional<RankMqPolicy::Slot> RankMqPolicy::coldest(Tier tier) const {
  for (unsigned level = 0; level < kLevels; ++level) {
    const std::size_t list = queue(tier, level);
    if (ring_.last(list) != ring_.sentinel(list)) return ring_.last(list);
  }
  return std::nullopt;
}

void RankMqPolicy::age_step() {
  // Lazy expiration: inspect one queue tail per access; a page untouched for
  // `lifetime` accesses loses half its rank credit and drops a level. The
  // cursor walks the 2 * kLevels lists in ring order, DRAM's first.
  age_cursor_ = (age_cursor_ + 1) % (2 * kLevels);
  if (age_cursor_ % kLevels == 0) return;  // nothing below level 0
  const Slot stale = ring_.last(age_cursor_);
  if (stale == ring_.sentinel(age_cursor_)) return;
  RankFields& node = ring_.node(stale);
  if (clock_ - node.last_access < lifetime_) return;
  node.count /= 2;
  node.last_access = clock_;
  ++expirations_;
  requeue(stale);
}

void RankMqPolicy::evict_coldest_nvm() {
  const std::optional<Slot> victim = coldest(Tier::kNvm);
  HYMEM_CHECK_MSG(victim.has_value(), "NVM full but rank queues empty");
  const PageId page = ring_.node(*victim).page;
  vmm_.evict(page);
  ring_.erase(page);
}

Nanoseconds RankMqPolicy::try_promote(Slot slot) {
  Ring::Node& node = ring_.node(slot);
  if (vmm_.has_free_frame(Tier::kDram)) {
    const Nanoseconds latency = vmm_.migrate(node.page, Tier::kDram);
    node.tier = Tier::kDram;
    requeue(slot);
    ++promotions_;
    return latency;
  }
  const std::optional<Slot> victim = coldest(Tier::kDram);
  HYMEM_CHECK(victim.has_value());
  Ring::Node& cold = ring_.node(*victim);
  // Rank order decides: only displace a strictly colder page.
  if (cold.level >= node.level) return 0;
  const Nanoseconds latency = vmm_.swap(node.page, cold.page);
  node.tier = Tier::kDram;
  cold.tier = Tier::kNvm;
  requeue(slot);
  requeue(*victim);
  ++promotions_;
  ++demotions_;
  return latency;
}

Served RankMqPolicy::serve(PageId page, std::uint64_t hash, AccessType type) {
  ++clock_;
  age_step();
  if (const Slot* found = ring_.find(page, hash)) {
    const Slot slot = *found;
    os::PageTableEntry* entry = vmm_.entry_hashed(page, hash);
    HYMEM_CHECK_MSG(entry != nullptr, "rank-queued page is not resident");
    Served served = serve_hit(*entry, type);
    RankFields& node = ring_.node(slot);
    ++node.count;
    node.last_access = clock_;
    requeue(slot);
    if (node.tier == Tier::kNvm && node.level >= promote_level_) {
      served.latency += try_promote(slot);
    }
    return served;
  }
  // Page fault: new pages enter the slow tier (RaPP's conservative
  // placement) and earn DRAM through rank. A count of 1 ranks at level 0.
  if (!vmm_.has_free_frame(Tier::kNvm)) evict_coldest_nvm();
  const Nanoseconds latency = vmm_.fault_in(page, Tier::kNvm);
  if (type == AccessType::kWrite) vmm_.touch_dirty(page);
  const Slot slot =
      ring_.insert_before(ring_.first(queue(Tier::kNvm, 0)), page);
  ring_.node(slot).count = 1;
  ring_.node(slot).last_access = clock_;
  return {latency, Demand::kNone};
}

Nanoseconds RankMqPolicy::on_block(const AccessBlock& block) {
  return serve_block(*this, block);
}

}  // namespace hymem::policy
