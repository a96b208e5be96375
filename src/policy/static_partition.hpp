// Static hybrid partition: pages are hashed to a module once and never
// migrate. The no-migration control for the ablation benches — it isolates
// how much of the hybrid benefit/penalty comes from migration itself.
#pragma once

#include "policy/hybrid_policy.hpp"
#include "policy/lru.hpp"

namespace hymem::policy {

/// Hash-partitioned hybrid memory with per-module LRU and zero migrations.
class StaticPartitionPolicy final : public HybridPolicy {
 public:
  explicit StaticPartitionPolicy(os::Vmm& vmm);

  std::string_view name() const override { return "static-partition"; }
  Nanoseconds on_access(PageId page, AccessType type) override;
  Nanoseconds on_block(const AccessBlock& block) override;

  /// serve_block's step (hits are served through Vmm::access_if_resident,
  /// which records them itself).
  Served serve(PageId page, std::uint64_t hash, AccessType type);

  /// Module a page is permanently assigned to.
  Tier home(PageId page) const;

 private:
  LruPolicy dram_;
  LruPolicy nvm_;
  std::uint64_t dram_share_permille_;
};

}  // namespace hymem::policy
