// First-In-First-Out replacement: insertion order, hits ignored. Not behind
// any policy name; a reference point for the property suite.
#pragma once

#include <cstddef>
#include <optional>

#include "policy/page_ring.hpp"
#include "util/types.hpp"

namespace hymem::policy {

/// FIFO queue of pages on a PageRing, running from the newest page at
/// first() to the oldest at last().
class FifoPolicy {
 public:
  explicit FifoPolicy(std::size_t capacity) : ring_(capacity) {}

  std::size_t capacity() const { return ring_.capacity(); }
  std::size_t size() const { return ring_.size(); }
  bool full() const { return ring_.full(); }
  bool contains(PageId page) const { return ring_.contains(page); }

  void on_hit(PageId page, AccessType type);
  void insert(PageId page, AccessType type);
  /// The oldest page, not yet removed. nullopt iff empty.
  std::optional<PageId> select_victim() const;
  void erase(PageId page) { ring_.erase(page); }

 private:
  PageRing ring_;
};

}  // namespace hymem::policy
