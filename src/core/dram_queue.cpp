#include "core/dram_queue.hpp"

#include "util/check.hpp"

namespace hymem::core {

void DramLruQueue::on_hit(PageId page) {
  const Slot* slot = ring_.find(page);
  HYMEM_CHECK_MSG(slot != nullptr, "hit on untracked page");
  touch(*slot);
}

void DramLruQueue::insert(PageId page, bool promoted) {
  const Slot slot = ring_.insert_before(ring_.first(), page);
  if (promoted) ring_.node(slot).score = PromotionScore::kPromotedBit;
}

std::optional<PageId> DramLruQueue::lru_victim() const {
  if (size() == 0) return std::nullopt;
  return ring_.node(ring_.last()).page;
}

std::optional<std::uint64_t> DramLruQueue::erase(PageId page) {
  const Node& node = ring_.node(ring_.erase(page));
  if (!node.promoted()) return std::nullopt;
  return node.hits();
}

std::optional<std::uint64_t> DramLruQueue::promotion_hits(PageId page) const {
  const Slot* slot = ring_.find(page);
  if (slot == nullptr || !ring_.node(*slot).promoted()) return std::nullopt;
  return ring_.node(*slot).hits();
}

}  // namespace hymem::core
