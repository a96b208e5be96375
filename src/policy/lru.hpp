// Least-Recently-Used replacement — the paper's reference algorithm for both
// the DRAM-only baseline (Fig. 1) and the two queues of the proposed scheme.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/flat_page_map.hpp"
#include "util/types.hpp"

namespace hymem::policy {

/// Classic LRU over pages: O(1) hit, insert and eviction. The recency list
/// is index-linked over one contiguous node array (16-byte nodes, 32-bit
/// links) indexed by a flat open-addressing map with 32-bit values — the
/// whole structure is a few dense arrays sized once at construction, so the
/// per-access splice stays inside a compact, allocation-free working set.
class LruPolicy {
 public:
  explicit LruPolicy(std::size_t capacity);

  /// Maximum number of pages the policy may hold.
  std::size_t capacity() const { return capacity_; }
  /// Pages currently tracked.
  std::size_t size() const { return index_.size(); }
  bool full() const { return size() >= capacity_; }
  bool contains(PageId page) const { return index_.contains(page); }

  /// Warms the index slot a coming lookup of `page` will probe.
  void prefetch(PageId page) const { index_.prefetch(page); }
  /// Moves a tracked page to the MRU position.
  void on_hit(PageId page, AccessType type);
  /// Starts tracking a new page at the MRU position (must not be present;
  /// must not be full: callers evict first via select_victim()/erase()).
  void insert(PageId page, AccessType type);
  /// The LRU page, not yet removed. nullopt iff empty.
  std::optional<PageId> select_victim();
  /// Stops tracking a page (eviction or migration elsewhere).
  void erase(PageId page);

  /// MRU-to-LRU page order (for tests).
  template <typename Fn>
  void for_each_mru_to_lru(Fn&& fn) const {
    for (std::uint32_t i = nodes_[sentinel()].next; i != sentinel();
         i = nodes_[i].next) {
      fn(nodes_[i].page);
    }
  }

 private:
  struct Node {
    PageId page;
    std::uint32_t prev;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNoNode = UINT32_MAX;

  /// The circular list's sentinel node lives at index `capacity_`.
  std::uint32_t sentinel() const {
    return static_cast<std::uint32_t>(capacity_);
  }

  void unlink(std::uint32_t i) {
    nodes_[nodes_[i].prev].next = nodes_[i].next;
    nodes_[nodes_[i].next].prev = nodes_[i].prev;
  }
  void link_front(std::uint32_t i) {
    const std::uint32_t head = nodes_[sentinel()].next;
    nodes_[i].prev = sentinel();
    nodes_[i].next = head;
    nodes_[head].prev = i;
    nodes_[sentinel()].next = i;
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;          // [0, capacity_) + sentinel at the end
  std::vector<std::uint32_t> free_;  // unused node indices (stack)
  util::FlatPageMap<std::uint32_t> index_;
};

}  // namespace hymem::policy
