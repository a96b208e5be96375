#include "check/clock_dwf_reference.hpp"

#include <iterator>

#include "util/check.hpp"

namespace hymem::check {

ClockDwfReference::ClockDwfReference(std::size_t dram_frames,
                                     std::size_t nvm_frames,
                                     std::uint64_t page_factor,
                                     bool mutate_dram_read_ref)
    : page_factor_(page_factor), mutate_dram_read_ref_(mutate_dram_read_ref) {
  HYMEM_CHECK_MSG(dram_frames > 0 && nvm_frames > 0,
                  "CLOCK-DWF needs both modules populated");
  dram_.capacity = dram_frames;
  nvm_.capacity = nvm_frames;
}

std::optional<Tier> ClockDwfReference::tier_of(PageId page) const {
  const auto it = state_.find(page);
  if (it == state_.end()) return std::nullopt;
  return it->second.tier;
}

RingView ClockDwfReference::view(const Clock& clock) const {
  RingView out;
  if (clock.ring.empty()) return out;
  auto it = std::list<PageId>::const_iterator(clock.hand);
  while (out.size() < clock.ring.size()) {
    out.emplace_back(*it, state_.at(*it).ref);
    ++it;
    if (it == clock.ring.end()) it = clock.ring.begin();
  }
  return out;
}

void ClockDwfReference::enter(Clock& clock, PageId page) {
  HYMEM_CHECK(clock.ring.size() < clock.capacity);
  state_.at(page).ref = false;
  if (clock.ring.empty()) {
    clock.ring.push_back(page);
    clock.hand = clock.ring.begin();
    return;
  }
  // "Just behind the hand": the hand reaches the new page last.
  clock.ring.insert(clock.hand, page);
}

void ClockDwfReference::leave(Clock& clock, PageId page) {
  auto it = clock.ring.begin();
  while (it != clock.ring.end() && *it != page) ++it;
  HYMEM_CHECK_MSG(it != clock.ring.end(), "page is not on this clock");
  if (it == clock.hand) {
    ++clock.hand;
    if (clock.hand == clock.ring.end()) clock.hand = clock.ring.begin();
  }
  clock.ring.erase(it);
  if (clock.ring.empty()) clock.hand = clock.ring.end();
}

PageId ClockDwfReference::sweep(Clock& clock) {
  HYMEM_CHECK(!clock.ring.empty());
  while (true) {
    PageState& st = state_.at(*clock.hand);
    if (!st.ref) return *clock.hand;
    st.ref = false;
    ++clock.hand;
    if (clock.hand == clock.ring.end()) clock.hand = clock.ring.begin();
  }
}

void ClockDwfReference::evict_nvm_victim(DwfDecision& d) {
  const PageId victim = sweep(nvm_);
  leave(nvm_, victim);
  d.evicted = victim;
  d.evicted_dirty = state_.at(victim).dirty;
  if (d.evicted_dirty) ++counts_.dirty_evictions;
  state_.erase(victim);
}

void ClockDwfReference::demote_dram_victim(DwfDecision& d) {
  const PageId victim = sweep(dram_);
  if (nvm_.ring.size() == nvm_.capacity) evict_nvm_victim(d);
  leave(dram_, victim);
  state_.at(victim).tier = Tier::kNvm;
  enter(nvm_, victim);
  d.demoted = victim;
  ++counts_.migrations_to_nvm;
  counts_.nvm_migration_cell_writes += page_factor_;
}

void ClockDwfReference::fault(PageId page, AccessType type, DwfDecision& d) {
  ++counts_.page_faults;
  const bool write = type == AccessType::kWrite;
  const bool dram_has_room = dram_.ring.size() < dram_.capacity;
  if (write || dram_has_room) {
    if (!dram_has_room) demote_dram_victim(d);
    state_[page] = PageState{Tier::kDram, false, write};
    enter(dram_, page);
    state_.at(page).ref = write;  // the faulting write is a reference
    ++counts_.fills_to_dram;
    d.outcome = DwfOutcome::kFaultToDram;
    return;
  }
  if (nvm_.ring.size() == nvm_.capacity) evict_nvm_victim(d);
  state_[page] = PageState{Tier::kNvm, false, false};
  enter(nvm_, page);
  ++counts_.fills_to_nvm;
  counts_.nvm_fill_cell_writes += page_factor_;
  d.outcome = DwfOutcome::kFaultToNvm;
}

DwfDecision ClockDwfReference::on_access(PageId page, AccessType type) {
  ++counts_.accesses;
  DwfDecision d;
  const auto found = state_.find(page);
  if (found == state_.end()) {
    fault(page, type, d);
    return d;
  }
  PageState& st = found->second;
  const bool write = type == AccessType::kWrite;
  if (st.tier == Tier::kDram) {
    d.outcome = DwfOutcome::kDramHit;
    if (write) {
      st.ref = true;
      st.dirty = true;
      ++counts_.dram_write_hits;
    } else {
      if (mutate_dram_read_ref_) st.ref = true;
      ++counts_.dram_read_hits;
    }
    return d;
  }
  if (!write) {
    d.outcome = DwfOutcome::kNvmHit;
    st.ref = true;
    ++counts_.nvm_read_hits;
    return d;
  }
  // A write to an NVM page: promote it, then DRAM serves the write.
  d.outcome = DwfOutcome::kPromotion;
  if (dram_.ring.size() == dram_.capacity) {
    // Full DRAM: the promotion swaps places with the DRAM victim.
    const PageId victim = sweep(dram_);
    leave(dram_, victim);
    leave(nvm_, page);
    state_.at(victim).tier = Tier::kNvm;
    enter(nvm_, victim);
    d.demoted = victim;
    ++counts_.migrations_to_nvm;
    counts_.nvm_migration_cell_writes += page_factor_;
  } else {
    leave(nvm_, page);
  }
  ++counts_.migrations_to_dram;
  st.tier = Tier::kDram;
  enter(dram_, page);
  st.ref = true;
  st.dirty = true;
  ++counts_.dram_write_hits;
  return d;
}

}  // namespace hymem::check
