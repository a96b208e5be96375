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
  Nanoseconds on_block(const AccessBlock& block) override;
  void publish_dirty() override;

  /// serve_block's step. Residency is LRU membership, so a hit classifies
  /// with one index probe. A DRAM write parks its dirty bit on the LRU node
  /// until the page is evicted; only an NVM write fetches the page-table
  /// entry, whose frame the wear ledger needs. Defined in the .cpp, where
  /// on_block and on_access instantiate serve_block and inline it.
  [[gnu::always_inline]] inline Served serve(PageId page, std::uint64_t hash,
                                             AccessType type);

 private:
  Served fault(PageId page, AccessType type);

  Tier tier_;
  LruPolicy lru_;
};

}  // namespace hymem::policy
