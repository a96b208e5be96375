#include "policy/lru.hpp"

#include "util/check.hpp"

namespace hymem::policy {

void LruPolicy::on_hit(PageId page, AccessType /*type*/) {
  const Slot* slot = ring_.find(page);
  HYMEM_CHECK_MSG(slot != nullptr, "hit on untracked page");
  touch(*slot);
}

void LruPolicy::insert(PageId page, AccessType /*type*/) {
  ring_.insert_before(ring_.first(), page);
}

std::optional<PageId> LruPolicy::select_victim() {
  if (size() == 0) return std::nullopt;
  const Node& victim = ring_.node(ring_.last());
  // The caller's next move is erase(victim): start pulling the victim's
  // index slot and list neighbour now — the LRU tail is cold by
  // definition, so both are otherwise guaranteed cache misses.
  ring_.prefetch(victim.page);
  __builtin_prefetch(&ring_.node(victim.prev));
  return victim.page;
}

}  // namespace hymem::policy
