// DRAM-as-cache: the "first group" of related work in the paper's Section
// III — DRAM acts as a buffer in front of NVM and every NVM hit promotes the
// page immediately (Qureshi-style, exclusive variant). This is the
// aggressive-migration endpoint against which the proposed scheme's
// threshold filtering is contrasted.
#pragma once

#include "policy/hybrid_policy.hpp"
#include "policy/lru.hpp"

namespace hymem::policy {

/// Exclusive DRAM cache over NVM with promote-on-first-touch.
class DramCachePolicy final : public HybridPolicy {
 public:
  explicit DramCachePolicy(os::Vmm& vmm);

  std::string_view name() const override { return "dram-cache"; }
  Nanoseconds on_block(const AccessBlock& block) override;

  /// serve_block's step: one page-table probe classifies the access; an
  /// NVM hit is served from NVM, then promoted.
  Served serve(PageId page, std::uint64_t hash, AccessType type);

 private:
  /// Frees one DRAM frame by demoting the DRAM LRU victim to NVM (evicting
  /// the NVM LRU victim to disk first if needed). Returns demotion latency.
  Nanoseconds make_dram_room();

  LruPolicy dram_;
  LruPolicy nvm_;
};

}  // namespace hymem::policy
