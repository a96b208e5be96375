#include "policy/rank_mq.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace hymem::policy {

RankMqPolicy::RankMqPolicy(os::Vmm& vmm, unsigned promote_level,
                           std::uint64_t lifetime)
    : HybridPolicy(vmm), promote_level_(promote_level), lifetime_(lifetime) {
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

void RankMqPolicy::enqueue(Node& node) {
  // The caller must have dequeued the node from its previous (tier, level)
  // queue before mutating either field — intrusive lists track size per
  // list object, so unlinking through the wrong queue corrupts counts.
  HYMEM_CHECK(!node.hook.is_linked());
  node.level = level_of(node.count);
  queue(node.tier, node.level).push_front(node);
}

void RankMqPolicy::dequeue(Node& node) {
  if (node.hook.is_linked()) queue(node.tier, node.level).erase(node);
}

RankMqPolicy::Node* RankMqPolicy::coldest(Tier tier) {
  for (unsigned level = 0; level < kLevels; ++level) {
    if (Node* victim = queue(tier, level).back()) return victim;
  }
  return nullptr;
}

void RankMqPolicy::age_step() {
  // Lazy expiration: inspect one queue tail per access; a page untouched for
  // `lifetime` accesses loses half its rank credit and drops a level.
  age_cursor_ = (age_cursor_ + 1) % (2 * kLevels);
  const Tier tier = age_cursor_ < kLevels ? Tier::kDram : Tier::kNvm;
  const unsigned level = age_cursor_ % kLevels;
  if (level == 0) return;  // nothing below level 0
  Node* stale = queue(tier, level).back();
  if (stale == nullptr || clock_ - stale->last_access < lifetime_) return;
  dequeue(*stale);
  stale->count /= 2;
  stale->last_access = clock_;
  ++expirations_;
  enqueue(*stale);
}

void RankMqPolicy::evict_coldest_nvm() {
  Node* victim = coldest(Tier::kNvm);
  HYMEM_CHECK_MSG(victim != nullptr, "NVM full but rank queues empty");
  dequeue(*victim);
  vmm_.evict(victim->page);
  nodes_.erase(victim->page);
}

Nanoseconds RankMqPolicy::try_promote(Node& node) {
  if (vmm_.has_free_frame(Tier::kDram)) {
    const Nanoseconds latency = vmm_.migrate(node.page, Tier::kDram);
    dequeue(node);
    node.tier = Tier::kDram;
    enqueue(node);
    ++promotions_;
    return latency;
  }
  Node* victim = coldest(Tier::kDram);
  HYMEM_CHECK(victim != nullptr);
  // Rank order decides: only displace a strictly colder page.
  if (victim->level >= node.level) return 0;
  const Nanoseconds latency = vmm_.swap(node.page, victim->page);
  dequeue(node);
  dequeue(*victim);
  node.tier = Tier::kDram;
  victim->tier = Tier::kNvm;
  enqueue(node);
  enqueue(*victim);
  ++promotions_;
  ++demotions_;
  return latency;
}

Served RankMqPolicy::serve(PageId page, std::uint64_t /*hash*/,
                           AccessType type) {
  ++clock_;
  age_step();
  const auto it = nodes_.find(page);
  if (it != nodes_.end()) {
    Node& node = *it->second;
    const Nanoseconds device = vmm_.access(page, type);
    dequeue(node);
    ++node.count;
    node.last_access = clock_;
    enqueue(node);
    if (node.tier == Tier::kNvm && node.level >= promote_level_) {
      return {device + try_promote(node), Demand::kNone};
    }
    return {device, Demand::kNone};
  }
  // Page fault: new pages enter the slow tier (RaPP's conservative
  // placement) and earn DRAM through rank.
  if (!vmm_.has_free_frame(Tier::kNvm)) evict_coldest_nvm();
  const Nanoseconds latency = vmm_.fault_in(page, Tier::kNvm);
  if (type == AccessType::kWrite) vmm_.touch_dirty(page);
  auto owned = std::make_unique<Node>();
  Node* node = owned.get();
  node->page = page;
  node->count = 1;
  node->last_access = clock_;
  node->tier = Tier::kNvm;
  nodes_.emplace(page, std::move(owned));
  enqueue(*node);
  return {latency, Demand::kNone};
}

Nanoseconds RankMqPolicy::on_access(PageId page, AccessType type) {
  return serve_one(*this, page, type);
}

Nanoseconds RankMqPolicy::on_block(const AccessBlock& block) {
  return serve_block(*this, block);
}

}  // namespace hymem::policy
