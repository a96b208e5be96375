// First-In-First-Out replacement: insertion order, hits ignored. Not behind
// any policy name; a reference point for the property suite.
#pragma once

#include <cstddef>
#include <optional>

#include "util/flat_page_map.hpp"
#include "util/intrusive_list.hpp"
#include "util/slab_pool.hpp"
#include "util/types.hpp"

namespace hymem::policy {

/// FIFO queue of pages (slab-allocated nodes, flat-map index).
class FifoPolicy {
 public:
  explicit FifoPolicy(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  bool full() const { return size() >= capacity_; }
  bool contains(PageId page) const { return index_.contains(page); }

  void on_hit(PageId page, AccessType type);
  void insert(PageId page, AccessType type);
  /// The oldest page, not yet removed. nullopt iff empty.
  std::optional<PageId> select_victim();
  void erase(PageId page);

 private:
  struct Node {
    PageId page;
    ListHook hook;
  };

  std::size_t capacity_;
  IntrusiveList<Node, &Node::hook> list_;  // front = newest
  util::SlabPool<Node> pool_;
  util::FlatPageMap<Node*> index_;
};

}  // namespace hymem::policy
