// CLOCK-DWF (Lee, Bahn & Noh, IEEE TC 2013) — the paper's primary baseline,
// reimplemented from the decision rules both papers state:
//
//   * two clock algorithms, one per module;
//   * page fault caused by a WRITE  -> page placed in DRAM;
//     page fault caused by a READ   -> page placed in NVM
//     (unless DRAM still has free frames, which also captures the paper's
//     observation that an empty DRAM absorbs pages regardless of type);
//   * any WRITE to a page residing in NVM -> immediate migration to DRAM,
//     so NVM never serves a write;
//   * DRAM victims are chosen write-history-aware (the reference bit is set
//     by writes only, so read-dominant pages age out first) and are demoted
//     to NVM, not discarded;
//   * NVM victims (standard clock) are evicted to disk.
//
// The motivation section's findings hinge on this structure: when DRAM is
// full, every write to an NVM page costs BOTH a NVM->DRAM and a DRAM->NVM
// page copy (2 * PageFactor device accesses each way).
#pragma once

#include "policy/clock.hpp"
#include "policy/hybrid_policy.hpp"

namespace hymem::policy {

/// CLOCK-DWF hybrid policy.
class ClockDwfPolicy final : public HybridPolicy {
 public:
  explicit ClockDwfPolicy(os::Vmm& vmm);

  std::string_view name() const override { return "clock-dwf"; }
  Nanoseconds on_block(const AccessBlock& block) override;

  /// serve_block's step. The clocks track residency exactly, so the DRAM
  /// clock is probed first: a DRAM hit costs one probe (a write sets the
  /// reference bit and parks the dirty bit on the node until the page
  /// leaves DRAM) and an NVM read hit two. A write to an NVM page is
  /// promoted first and served from DRAM. Defined below, where on_block's
  /// serve_block inlines it.
  [[gnu::always_inline]] inline Served serve(PageId page, std::uint64_t hash,
                                             AccessType type);

  const ClockPolicy& dram_clock() const { return dram_; }
  const ClockPolicy& nvm_clock() const { return nvm_; }

 private:
  /// Takes `victim` off the DRAM clock, publishing its parked dirty bit
  /// before the page moves to NVM.
  void leave_dram(PageId victim);
  /// Makes room in DRAM by demoting its clock victim to NVM (evicting an NVM
  /// page to disk first when NVM is also full). Returns the demotion latency.
  Nanoseconds demote_dram_victim();
  /// Makes room in NVM by evicting its clock victim to disk.
  void evict_nvm_victim();
  /// A write to an NVM page: promotes it to DRAM (swapping with the DRAM
  /// victim when DRAM is full) and marks it dirty, leaving the DRAM write
  /// hit to serve. Returns the migration latency.
  Nanoseconds promote_and_write(PageId page);
  /// Serves a page fault (CLOCK-DWF placement: writes and spare-DRAM faults
  /// fill DRAM, read faults fill NVM).
  Nanoseconds fault_in_access(PageId page, AccessType type);

  ClockPolicy dram_;
  ClockPolicy nvm_;
};

inline Served ClockDwfPolicy::serve(PageId page, std::uint64_t hash,
                                    AccessType type) {
  if (const ClockPolicy::Slot* slot = dram_.find(page, hash)) {
    // Write-history-aware: only writes refresh the DRAM reference bit, so
    // read-dominant pages age out towards NVM. A write also parks the dirty
    // bit; both are set without a branch on the access type.
    const bool write = type == AccessType::kWrite;
    ClockPolicy::Node& node = dram_.node(*slot);
    node.ref |= write;
    node.dirty |= write;
    return hit(Tier::kDram, type);
  }
  if (const ClockPolicy::Slot* slot = nvm_.find(page, hash)) {
    if (type == AccessType::kRead) {
      nvm_.node(*slot).ref = true;
      return hit(Tier::kNvm, type);
    }
    // Write to an NVM page: forced promotion — NVM never serves writes.
    Served served = hit(Tier::kDram, type);
    served.latency += promote_and_write(page);
    return served;
  }
  return {fault_in_access(page, type), Demand::kNone};
}

}  // namespace hymem::policy
