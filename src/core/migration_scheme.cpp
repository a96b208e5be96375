#include "core/migration_scheme.hpp"

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
  if (const DramLruQueue::Slot* slot =
          dram_.find(page, util::hash_page_id(page));
      slot != nullptr && dram_.node(*slot).dirty()) {
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

Nanoseconds TwoLruMigrationPolicy::fault(PageId page, AccessType type) {
  Nanoseconds latency = 0;
  if (!vmm_.has_free_frame(Tier::kDram)) latency += demote_dram_victim();
  latency += vmm_.fault_in(page, Tier::kDram);
  dram_.insert(page, /*promoted=*/false);
  if (type == AccessType::kWrite) vmm_.touch_dirty(page);
  return latency;
}

Nanoseconds TwoLruMigrationPolicy::on_block(const policy::AccessBlock& block) {
  return policy::serve_block(*this, block);
}

void TwoLruMigrationPolicy::publish_dirty() {
  dram_.for_each_dirty([this](PageId page) { vmm_.touch_dirty(page); });
}

}  // namespace hymem::core
