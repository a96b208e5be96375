// Executable specification of CLOCK-DWF (Lee, Bahn & Noh, IEEE TC 2013), the
// paper's primary baseline, written for obviousness rather than speed.
//
// The rules are the ones policy/clock_dwf.hpp states, transcribed afresh:
//
//   * one clock per module; a new page enters its clock just behind the
//     hand with the reference bit clear, and a sweep clears set bits until
//     it reaches a clear one, which is the victim;
//   * a write fault fills DRAM, a read fault fills NVM, and any fault fills
//     DRAM while DRAM has a free frame;
//   * a write to an NVM page promotes it to DRAM first (swapping with the
//     DRAM victim when DRAM is full), so NVM never serves a write;
//   * only writes set the DRAM reference bit (write-history-aware aging);
//     NVM hits of either type set the NVM reference bit;
//   * DRAM victims are demoted to NVM (evicting the NVM victim to disk when
//     NVM is full); NVM victims are evicted to disk, dirty ones paging out.
//
// Rings are std::list, per-page state is std::map, and the model shares no
// code with policy/. The differential harness (check/differential.hpp)
// replays the same trace through this model and ClockDwfPolicy and diffs
// every decision, both ring orders and the end-of-run ledgers.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "check/reference_model.hpp"
#include "util/types.hpp"

namespace hymem::check {

/// Observable outcome of one access under CLOCK-DWF.
enum class DwfOutcome : std::uint8_t {
  kDramHit = 0,     ///< Served by DRAM.
  kNvmHit,          ///< Read served by NVM.
  kPromotion,       ///< Write to an NVM page: moved to DRAM, then served.
  kFaultToDram,     ///< Page fault filled into DRAM.
  kFaultToNvm,      ///< Page fault filled into NVM.
};

constexpr std::string_view to_string(DwfOutcome o) {
  switch (o) {
    case DwfOutcome::kDramHit: return "dram-hit";
    case DwfOutcome::kNvmHit: return "nvm-hit";
    case DwfOutcome::kPromotion: return "promotion";
    case DwfOutcome::kFaultToDram: return "fault-to-dram";
    default: return "fault-to-nvm";
  }
}

/// Everything CLOCK-DWF decided for one access.
struct DwfDecision {
  DwfOutcome outcome = DwfOutcome::kDramHit;
  /// DRAM victim moved to NVM (by a fault into full DRAM, or by a forced
  /// promotion's swap); kInvalidPage if none.
  PageId demoted = kInvalidPage;
  /// NVM victim evicted to disk; kInvalidPage if none.
  PageId evicted = kInvalidPage;
  /// The eviction cost a disk page-out (the victim was dirty).
  bool evicted_dirty = false;
};

/// One clock's state as the harness compares it: every page in ring order
/// from the hand, with its reference bit.
using RingView = std::vector<std::pair<PageId, bool>>;

/// The naive CLOCK-DWF model.
class ClockDwfReference {
 public:
  /// `mutate_dram_read_ref` is the MUTATION-CHECK KNOB (leave false for real
  /// checking): it makes DRAM read hits set the DRAM reference bit too,
  /// which breaks the write-history-aware aging rule. The differential
  /// harness must then report a divergence.
  ClockDwfReference(std::size_t dram_frames, std::size_t nvm_frames,
                    std::uint64_t page_factor,
                    bool mutate_dram_read_ref = false);

  /// Serves one access and reports what was decided.
  DwfDecision on_access(PageId page, AccessType type);

  const ReferenceCounts& counts() const { return counts_; }
  std::optional<Tier> tier_of(PageId page) const;
  RingView dram_ring() const { return view(dram_); }
  RingView nvm_ring() const { return view(nvm_); }

 private:
  struct Clock {
    std::size_t capacity = 0;
    std::list<PageId> ring;
    std::list<PageId>::iterator hand = ring.end();
  };
  struct PageState {
    Tier tier = Tier::kDram;
    bool ref = false;
    bool dirty = false;
  };

  Clock& clock_of(Tier tier) { return tier == Tier::kDram ? dram_ : nvm_; }
  RingView view(const Clock& clock) const;
  /// Puts `page` just behind the hand with its reference bit clear.
  void enter(Clock& clock, PageId page);
  /// Takes `page` off the ring; a hand on it moves to the next page.
  void leave(Clock& clock, PageId page);
  /// Runs the hand to the first page with a clear reference bit, clearing
  /// the set bits it passes. The clock must not be empty.
  PageId sweep(Clock& clock);
  /// Frees an NVM frame: its clock victim goes to disk.
  void evict_nvm_victim(DwfDecision& d);
  /// Frees a DRAM frame: its clock victim moves to NVM.
  void demote_dram_victim(DwfDecision& d);
  void fault(PageId page, AccessType type, DwfDecision& d);

  Clock dram_;
  Clock nvm_;
  std::uint64_t page_factor_;
  bool mutate_dram_read_ref_;
  std::map<PageId, PageState> state_;  // resident pages only
  ReferenceCounts counts_;
};

}  // namespace hymem::check
