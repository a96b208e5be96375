#include "policy/lru.hpp"

#include "util/check.hpp"

namespace hymem::policy {

LruPolicy::LruPolicy(std::size_t capacity) : capacity_(capacity) {
  HYMEM_CHECK_MSG(capacity > 0, "LRU capacity must be positive");
  HYMEM_CHECK_MSG(capacity < kNoNode, "LRU capacity exceeds 32-bit indexing");
  nodes_.resize(capacity + 1);
  nodes_[sentinel()] = Node{kInvalidPage, sentinel(), sentinel()};
  free_.reserve(capacity);
  // Pop order hands out low indices first, keeping the live prefix dense.
  for (std::size_t i = capacity; i > 0; --i) {
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  index_.reserve(capacity);
}

void LruPolicy::on_hit(PageId page, AccessType /*type*/) {
  const std::uint32_t* i = index_.find(page);
  HYMEM_CHECK_MSG(i != nullptr, "hit on untracked page");
  if (nodes_[sentinel()].next == *i) return;  // already MRU
  unlink(*i);
  link_front(*i);
}

void LruPolicy::insert(PageId page, AccessType /*type*/) {
  HYMEM_CHECK_MSG(size() < capacity_, "insert into full LRU");
  const auto [slot, inserted] = index_.try_emplace(page);
  HYMEM_CHECK_MSG(inserted, "insert of tracked page");
  const std::uint32_t i = free_.back();
  free_.pop_back();
  nodes_[i].page = page;
  *slot = i;
  link_front(i);
}

std::optional<PageId> LruPolicy::select_victim() {
  if (index_.empty()) return std::nullopt;
  const std::uint32_t victim = nodes_[sentinel()].prev;
  // The caller's next move is erase(victim): start pulling the victim's
  // index slot and list neighbours now — the LRU tail is cold by
  // definition, so both are otherwise guaranteed cache misses.
  index_.prefetch(nodes_[victim].page);
  __builtin_prefetch(&nodes_[nodes_[victim].prev]);
  return nodes_[victim].page;
}

void LruPolicy::erase(PageId page) {
  const std::optional<std::uint32_t> i = index_.take(page);
  HYMEM_CHECK_MSG(i.has_value(), "erase of untracked page");
  unlink(*i);
  free_.push_back(*i);
}

}  // namespace hymem::policy
