#include "policy/fifo.hpp"

#include "util/check.hpp"

namespace hymem::policy {

void FifoPolicy::on_hit(PageId page, AccessType /*type*/) {
  HYMEM_CHECK_MSG(contains(page), "hit on untracked page");
  // FIFO ignores recency.
}

void FifoPolicy::insert(PageId page, AccessType /*type*/) {
  ring_.insert_before(ring_.first(), page);
}

std::optional<PageId> FifoPolicy::select_victim() const {
  if (size() == 0) return std::nullopt;
  return ring_.node(ring_.last()).page;
}

}  // namespace hymem::policy
