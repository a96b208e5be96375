// Single-module baselines: a DRAM-only or NVM-only main memory managed by
// LRU. These are the normalization anchors of every figure (power is
// normalized to DRAM-only, NVM write counts to NVM-only).
#pragma once

#include "policy/hybrid_policy.hpp"
#include "policy/lru.hpp"

namespace hymem::policy {

/// Runs the whole main memory as one LRU-managed module, sized from the
/// VMM; the other module must be configured with zero frames.
class SingleTierPolicy final : public HybridPolicy {
 public:
  SingleTierPolicy(os::Vmm& vmm, Tier tier);

  std::string_view name() const override {
    return tier_ == Tier::kDram ? "dram-only-lru" : "nvm-only-lru";
  }
  Nanoseconds on_access(PageId page, AccessType type) override;
  void prefetch(PageId page) const override {
    vmm_.prefetch_translation(page);
    lru_.prefetch(page);
  }

 private:
  Tier tier_;
  LruPolicy lru_;
};

}  // namespace hymem::policy
