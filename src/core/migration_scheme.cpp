#include "core/migration_scheme.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hymem::core {

TwoLruMigrationPolicy::TwoLruMigrationPolicy(os::Vmm& vmm,
                                             const MigrationConfig& config)
    : policy::HybridPolicy(vmm),
      config_(config),
      dram_(static_cast<std::size_t>(vmm.frames(Tier::kDram))),
      nvm_(static_cast<std::size_t>(vmm.frames(Tier::kNvm)),
           config.read_perc, config.write_perc) {
  HYMEM_CHECK_MSG(vmm.frames(Tier::kDram) > 0 && vmm.frames(Tier::kNvm) > 0,
                  "the migration scheme needs both modules populated");
  if (config_.adaptive) {
    const auto& cfg = vmm.config();
    controller_ = std::make_unique<AdaptiveThresholdController>(
        config_, AdaptiveConfig{},
        AdaptiveThresholdController::break_even(cfg.dram, cfg.nvm,
                                                vmm.page_factor()));
  }
}

std::uint64_t TwoLruMigrationPolicy::read_threshold() const {
  return controller_ ? controller_->read_threshold() : config_.read_threshold;
}

std::uint64_t TwoLruMigrationPolicy::write_threshold() const {
  return controller_ ? controller_->write_threshold() : config_.write_threshold;
}

void TwoLruMigrationPolicy::evict_from_dram(PageId page) {
  // Publish the dirty bit parked on the node (see serve) into the page
  // table before the page leaves DRAM: the migrated-to-NVM entry keeps the
  // bit, and eviction accounting reads it from there.
  if (const DramLruQueue::Node* node = dram_.find_node(page);
      node != nullptr && node->dirty()) {
    vmm_.touch_dirty(page);
  }
  const std::optional<std::uint64_t> score = dram_.erase(page);
  if (score.has_value() && controller_) {
    controller_->observe_promotion_outcome(*score);
  }
}

Nanoseconds TwoLruMigrationPolicy::demote_dram_victim() {
  const auto victim = dram_.lru_victim();
  HYMEM_CHECK_MSG(victim.has_value(), "DRAM LRU empty while full");
  if (!vmm_.has_free_frame(Tier::kNvm)) {
    const auto nvm_victim = nvm_.lru_victim();
    HYMEM_CHECK_MSG(nvm_victim.has_value(), "NVM queue empty while full");
    nvm_.erase(*nvm_victim);
    vmm_.evict(*nvm_victim);
  }
  evict_from_dram(*victim);
  const Nanoseconds latency = vmm_.migrate(*victim, Tier::kNvm);
  nvm_.insert_front(*victim);
  ++demotions_;
  return latency;
}

Nanoseconds TwoLruMigrationPolicy::promote(PageId page) {
  Nanoseconds latency = 0;
  if (vmm_.has_free_frame(Tier::kDram)) {
    nvm_.erase(page);
    latency += vmm_.migrate(page, Tier::kDram);
  } else {
    const auto victim = dram_.lru_victim();
    HYMEM_CHECK_MSG(victim.has_value(), "DRAM LRU empty while full");
    evict_from_dram(*victim);
    nvm_.erase(page);
    latency += vmm_.swap(page, *victim);
    nvm_.insert_front(*victim);
    ++demotions_;
  }
  dram_.insert(page, /*promoted=*/true);
  ++promotions_;
  return latency;
}

bool TwoLruMigrationPolicy::admit_promotion() {
  if (config_.max_promotions_per_kacc == 0) return true;
  if (tokens_ < 1.0) {
    ++throttled_;
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

policy::Served TwoLruMigrationPolicy::nvm_hit(PageId page,
                                              CountedLruQueue::Node& node,
                                              AccessType type) {
  policy::Served served = hit(Tier::kNvm, type);
  const std::uint64_t counter = nvm_.record_hit_node(node, type);
  const std::uint64_t threshold =
      type == AccessType::kRead ? read_threshold() : write_threshold();
  if (counter > threshold && admit_promotion()) served.latency += promote(page);
  return served;
}

policy::Served TwoLruMigrationPolicy::serve(PageId page, std::uint64_t hash,
                                            AccessType type) {
  // Refill the promotion token bucket (rate per 1000 accesses).
  if (config_.max_promotions_per_kacc > 0) {
    tokens_ = std::min(
        static_cast<double>(config_.max_promotions_per_kacc),
        tokens_ + static_cast<double>(config_.max_promotions_per_kacc) / 1000.0);
  }
  if (DramLruQueue::Node* node = dram_.find_node_hashed(page, hash)) {
    // Algorithm 1 lines 2-3: plain LRU housekeeping. The node also carries
    // the open-promotion score and the parked dirty bit.
    if (type == AccessType::kWrite) node->mark_dirty();
    dram_.on_hit_node(*node);
    return hit(Tier::kDram, type);
  }
  if (type == AccessType::kRead) {
    if (CountedLruQueue::Node* node = nvm_.find_node_hashed(page, hash)) {
      return nvm_hit(page, *node, type);
    }
  } else if (os::PageTableEntry* entry = vmm_.entry_hashed(page, hash)) {
    // Resident but not in the DRAM queue: must be NVM.
    HYMEM_CHECK_MSG(entry->tier() == Tier::kNvm, "hit on untracked page");
    entry->mark_dirty();
    vmm_.note_nvm_demand_write(entry->frame());
    CountedLruQueue::Node* node = nvm_.find_node_hashed(page, hash);
    HYMEM_CHECK_MSG(node != nullptr, "hit on untracked page");
    return nvm_hit(page, *node, type);
  }
  return {fault(page, type), policy::Demand::kNone};
}

Nanoseconds TwoLruMigrationPolicy::fault(PageId page, AccessType type) {
  Nanoseconds latency = 0;
  if (!vmm_.has_free_frame(Tier::kDram)) latency += demote_dram_victim();
  latency += vmm_.fault_in(page, Tier::kDram);
  dram_.insert(page, /*promoted=*/false);
  if (type == AccessType::kWrite) vmm_.touch_dirty(page);
  return latency;
}

Nanoseconds TwoLruMigrationPolicy::on_access(PageId page, AccessType type) {
  const Nanoseconds latency = policy::serve_one(*this, page, type);
  if (audit_hook_) audit_hook_(*this, page, type);
  return latency;
}

Nanoseconds TwoLruMigrationPolicy::on_block(const policy::AccessBlock& block) {
  return policy::serve_block(*this, block);
}

void TwoLruMigrationPolicy::publish_dirty() {
  dram_.for_each_dirty([this](PageId page) { vmm_.touch_dirty(page); });
}

}  // namespace hymem::core
