// The paper's proposed data-migration scheme (Section IV, Algorithm 1).
//
// Two unmodified LRU queues — one per module — so the hit ratio matches a
// plain LRU of the same total size. The scheme only decides *placement*:
//
//   * every page fault fills DRAM (all-new pages are the most likely to be
//     re-accessed; landing them in NVM would cost an NVM page write anyway,
//     because the demotion it forces writes a page into NVM regardless);
//   * the DRAM LRU victim demotes to the NVM queue head;
//   * the NVM LRU victim evicts to disk;
//   * an NVM page migrates to DRAM only when its windowed read/write counter
//     exceeds read_threshold / write_threshold — i.e. only when the page has
//     proven hot enough that the DMA round trip will pay for itself. Unlike
//     CLOCK-DWF, writes to NVM pages are served *by NVM* until that proof
//     arrives.
#pragma once

#include <functional>
#include <memory>

#include "core/adaptive_threshold.hpp"
#include "core/dram_queue.hpp"
#include "core/migration_config.hpp"
#include "core/nvm_queue.hpp"
#include "policy/hybrid_policy.hpp"

namespace hymem::core {

/// The proposed two-LRU migration policy.
class TwoLruMigrationPolicy final : public policy::HybridPolicy {
 public:
  TwoLruMigrationPolicy(os::Vmm& vmm, const MigrationConfig& config);

  std::string_view name() const override {
    return config_.adaptive ? "two-lru-adaptive" : "two-lru";
  }
  /// Serves one access, then runs the audit hook.
  Nanoseconds on_access(PageId page, AccessType type) override;
  Nanoseconds on_block(const policy::AccessBlock& block) override;
  void publish_dirty() override;

  /// serve_block's step: Algorithm 1 for one access. The queues track
  /// exactly the DRAM- and NVM-resident pages, so the queue indexes
  /// classify an access: a DRAM hit costs one probe (a write parks its
  /// dirty bit on the queue node until the page leaves DRAM), an NVM read
  /// hit two. Only an NVM write also fetches the page-table entry, whose
  /// frame the wear ledger needs. Defined in the .cpp, where on_block and
  /// on_access instantiate serve_block and inline it.
  [[gnu::always_inline]] inline policy::Served serve(PageId page,
                                                     std::uint64_t hash,
                                                     AccessType type);

  const MigrationConfig& config() const { return config_; }
  const CountedLruQueue& nvm_queue() const { return nvm_; }
  const DramLruQueue& dram_queue() const { return dram_; }

  /// Effective thresholds (tracks the controller when adaptive).
  std::uint64_t read_threshold() const;
  std::uint64_t write_threshold() const;

  /// Migrations the scheme initiated NVM->DRAM (threshold crossings).
  std::uint64_t promotions() const { return promotions_; }
  /// Demotions DRAM->NVM (capacity-forced).
  std::uint64_t demotions() const { return demotions_; }
  /// Promotions suppressed by the rate limiter.
  std::uint64_t throttled_promotions() const { return throttled_; }

  /// Controller (null unless adaptive).
  const AdaptiveThresholdController* controller() const {
    return controller_.get();
  }

  /// Debug hook, run after every completed on_access (HYMEM_CHECK-style
  /// validation: src/check installs its invariant checker here). Null by
  /// default; on_block does not run it. The hook must not mutate the
  /// policy or the VMM.
  using AuditHook = std::function<void(const TwoLruMigrationPolicy&, PageId,
                                       AccessType)>;
  void set_audit_hook(AuditHook hook) { audit_hook_ = std::move(hook); }

 private:
  /// Promotes an NVM-resident page into DRAM, demoting the DRAM LRU victim
  /// when DRAM is full. Returns migration latency.
  Nanoseconds promote(PageId page);
  /// Frees a DRAM frame by demoting the DRAM LRU victim into the NVM queue
  /// head (evicting the NVM LRU victim to disk when NVM is full too).
  Nanoseconds demote_dram_victim();
  /// Removes `page` from the DRAM queue, reporting its promotion score (if
  /// it arrived via promotion) to the adaptive controller.
  void evict_from_dram(PageId page);
  /// Token-bucket admission for one promotion (true = allowed).
  bool admit_promotion();
  /// Lines 5-25 after an NVM hit: counts it in the page's windowed counter
  /// and promotes past the threshold (inlined into serve).
  [[gnu::always_inline]] inline policy::Served nvm_hit(
      PageId page, CountedLruQueue::Node& node, AccessType type);
  /// Lines 27-28: a page fault fills DRAM, demoting the DRAM LRU victim
  /// when needed.
  Nanoseconds fault(PageId page, AccessType type);

  MigrationConfig config_;
  DramLruQueue dram_;
  CountedLruQueue nvm_;
  std::unique_ptr<AdaptiveThresholdController> controller_;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t throttled_ = 0;
  double tokens_ = 0.0;
  AuditHook audit_hook_;
};

}  // namespace hymem::core
