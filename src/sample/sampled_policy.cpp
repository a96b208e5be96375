#include "sample/sampled_policy.hpp"

#include <optional>

#include "util/check.hpp"

namespace hymem::sample {

SampledLruPolicy::SampledLruPolicy(os::Vmm& vmm, const SampleConfig& config)
    : HybridPolicy(vmm),
      config_(config),
      hot_ring_(static_cast<std::size_t>(config.ring_capacity)),
      cold_ring_(static_cast<std::size_t>(config.ring_capacity)),
      tap_(config, vmm, hot_ring_, cold_ring_),
      dram_queue_(static_cast<std::size_t>(vmm.frames(Tier::kDram))),
      nvm_queue_(static_cast<std::size_t>(vmm.frames(Tier::kNvm))) {
  HYMEM_CHECK_MSG(config.drain_period > 0, "drain period must be positive");
}

Nanoseconds SampledLruPolicy::on_block(const policy::AccessBlock& block) {
  return policy::serve_block(*this, block);
}

policy::Served SampledLruPolicy::serve(PageId page, std::uint64_t hash,
                                       AccessType type) {
  ++accesses_;
  // Virtual time: the migrator runs at access-count boundaries, before the
  // access is served — deterministic for any worker count because it never
  // depends on wall-clock interleaving.
  if (accesses_ % config_.drain_period == 0) drain();
  const policy::Served served = serve_demand(page, hash, type);
  tap_.on_access(page);
  return served;
}

policy::Served SampledLruPolicy::serve_demand(PageId page, std::uint64_t hash,
                                              AccessType type) {
  // Demand handling only — hits never reorder the FIFO queues (a sampling
  // OS does not see per-access recency), migrations never happen inline.
  if (os::PageTableEntry* entry = vmm_.entry_hashed(page, hash)) {
    return serve_hit(*entry, type);
  }
  Tier dest;
  if (vmm_.has_free_frame(Tier::kDram)) {
    dest = Tier::kDram;
  } else if (vmm_.has_free_frame(Tier::kNvm)) {
    dest = Tier::kNvm;
  } else {
    // Memory full: evict the oldest NVM-resident page in fault order (the
    // DRAM queue serves when the config has no NVM frames at all).
    const bool from_nvm = !nvm_queue_.empty();
    TierQueue& q = from_nvm ? nvm_queue_ : dram_queue_;
    dest = from_nvm ? Tier::kNvm : Tier::kDram;
    const std::optional<PageId> victim = q.victim();
    HYMEM_CHECK_MSG(victim.has_value(), "full memory but no victim");
    q.erase(*victim);
    vmm_.evict(*victim);
  }
  const Nanoseconds latency = vmm_.fault_in(page, dest);
  queue_mut(dest).insert(page);
  if (type == AccessType::kWrite) vmm_.touch_dirty(page);
  return {latency, policy::Demand::kNone};
}

void SampledLruPolicy::drain() {
  ++drains_;
  const std::uint64_t budget = config_.migration_budget;
  std::uint64_t ops = 0;
  // Demotions first: they free DRAM frames, so the promotions that follow
  // land in free frames instead of forcing swaps.
  while (budget == 0 || ops < budget) {
    const std::optional<PageId> page = cold_ring_.pop();
    if (!page) break;
    ops += apply_demotion(*page);
  }
  while (budget == 0 || ops < budget) {
    const std::optional<PageId> page = hot_ring_.pop();
    if (!page) break;
    ops += apply_promotion(*page);
  }
  last_drain_ops_ = ops;
}

std::uint64_t SampledLruPolicy::apply_promotion(PageId page) {
  // Candidates age in the ring; the page may have been evicted or already
  // promoted by the time the migrator gets to it.
  if (vmm_.tier_of(page) != Tier::kNvm) {
    ++stale_candidates_;
    return 0;
  }
  if (vmm_.has_free_frame(Tier::kDram)) {
    vmm_.migrate(page, Tier::kDram);
    nvm_queue_.erase(page);
    dram_queue_.insert(page);
    ++promotions_;
    ++migration_copies_;
    return 1;
  }
  if (vmm_.frames(Tier::kDram) == 0) {
    ++stale_candidates_;
    return 0;
  }
  // DRAM full: swap with the oldest DRAM-resident page. One candidate,
  // two copies — the forced demotion rides the promotion's budget slot.
  const std::optional<PageId> victim = dram_queue_.victim();
  HYMEM_CHECK_MSG(victim.has_value(), "full DRAM but empty queue");
  vmm_.swap(page, *victim);
  nvm_queue_.erase(page);
  dram_queue_.erase(*victim);
  dram_queue_.insert(page);
  nvm_queue_.insert(*victim);
  ++promotions_;
  ++demotions_;
  migration_copies_ += 2;
  return 1;
}

std::uint64_t SampledLruPolicy::apply_demotion(PageId page) {
  if (vmm_.tier_of(page) != Tier::kDram) {
    ++stale_candidates_;
    return 0;
  }
  if (vmm_.frames(Tier::kNvm) == 0) {
    ++stale_candidates_;
    return 0;
  }
  if (!vmm_.has_free_frame(Tier::kNvm)) {
    // NVM also full: push its oldest page to disk so the cold DRAM page
    // can land. Background demotion buys DRAM headroom for future
    // promotions — the HeMem pattern.
    const std::optional<PageId> victim = nvm_queue_.victim();
    HYMEM_CHECK_MSG(victim.has_value(), "full NVM but empty queue");
    nvm_queue_.erase(*victim);
    vmm_.evict(*victim);
  }
  vmm_.migrate(page, Tier::kNvm);
  dram_queue_.erase(page);
  nvm_queue_.insert(page);
  ++demotions_;
  ++migration_copies_;
  return 1;
}

void SampledLruPolicy::reset_stats() {
  tap_.reset_stats();
  promotions_ = 0;
  demotions_ = 0;
  stale_candidates_ = 0;
  migration_copies_ = 0;
  drains_ = 0;
  last_drain_ops_ = 0;
}

obs::SampledStats SampledLruPolicy::sampled_stats() const {
  obs::SampledStats s;
  s.samples = tap_.samples();
  s.sample_drops = tap_.drops();
  s.coolings = tap_.coolings();
  s.hot_ring_hwm = tap_.hot_ring_hwm();
  s.cold_ring_hwm = tap_.cold_ring_hwm();
  s.promotions = promotions_;
  s.demotions = demotions_;
  s.stale_candidates = stale_candidates_;
  s.migration_copies = migration_copies_;
  s.drains = drains_;
  s.backlog = hot_ring_.size() + cold_ring_.size();
  return s;
}

std::unique_ptr<policy::HybridPolicy> make_sampled_lru(
    os::Vmm& vmm, const SampleConfig& config) {
  return std::make_unique<SampledLruPolicy>(vmm, config);
}

}  // namespace hymem::sample
