#include "policy/clock.hpp"

#include "util/check.hpp"

namespace hymem::policy {

void ClockPolicy::on_hit(PageId page, AccessType /*type*/) {
  const Slot* slot = ring_.find(page);
  HYMEM_CHECK_MSG(slot != nullptr, "hit on untracked page");
  ring_.node(*slot).ref = true;
}

void ClockPolicy::insert(PageId page, AccessType /*type*/) {
  // New pages enter just behind the hand (i.e. they are visited last); the
  // first page of an empty ring takes the hand.
  const Slot slot = ring_.insert_before(hand_, page);
  if (hand_ == ring_.sentinel()) hand_ = slot;
}

std::optional<PageId> ClockPolicy::select_victim() {
  if (size() == 0) return std::nullopt;
  // Sweep: give referenced pages a second chance. Terminates within one
  // lap plus a step, because every visited page's bit is cleared.
  while (ring_.node(hand_).ref) {
    ring_.node(hand_).ref = false;
    hand_ = after(hand_);
  }
  return ring_.node(hand_).page;
}

bool ClockPolicy::erase(PageId page) {
  const Slot slot = ring_.erase(page);
  // The erased node keeps its links, so after() still names its successor;
  // an emptied ring leaves the hand on the sentinel.
  if (hand_ == slot) hand_ = after(slot);
  return ring_.node(slot).dirty;
}

bool ClockPolicy::ref_bit(PageId page) const {
  const Slot* slot = ring_.find(page);
  HYMEM_CHECK_MSG(slot != nullptr, "ref_bit of untracked page");
  return ring_.node(*slot).ref;
}

}  // namespace hymem::policy
