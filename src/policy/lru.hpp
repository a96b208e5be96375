// Least-Recently-Used replacement — the paper's reference algorithm for both
// the DRAM-only baseline (Fig. 1) and the two queues of the proposed scheme.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "policy/page_ring.hpp"
#include "util/types.hpp"

namespace hymem::policy {

/// Classic LRU over pages: O(1) hit, insert and eviction. The recency list
/// is a PageRing (24-byte nodes, 32-bit links, a flat index) running from
/// the MRU page at first() to the LRU page at last(), so the per-access
/// splice stays inside a compact, allocation-free working set.
class LruPolicy {
 public:
  using Slot = PageRing::Slot;

  explicit LruPolicy(std::size_t capacity) : ring_(capacity) {}

  /// Maximum number of pages the policy may hold.
  std::size_t capacity() const { return ring_.capacity(); }
  /// Pages currently tracked.
  std::size_t size() const { return ring_.size(); }
  bool full() const { return ring_.full(); }
  bool contains(PageId page) const { return ring_.contains(page); }

  /// Slot of a tracked page, probed with its memoized hash (must equal
  /// util::hash_page_id(page)); nullptr when untracked.
  const Slot* find(PageId page, std::uint64_t hash) const {
    return ring_.find(page, hash);
  }
  /// Moves the page at `slot` to the MRU position; returns its node.
  PageRing::Node& touch(Slot slot) {
    if (ring_.first() != slot) ring_.move_before(slot, ring_.first());
    return ring_.node(slot);
  }

  /// Moves a tracked page to the MRU position.
  void on_hit(PageId page, AccessType type);
  /// Starts tracking a new page at the MRU position (must not be present;
  /// must not be full: callers evict first via select_victim()/erase()).
  void insert(PageId page, AccessType type);
  /// The LRU page, not yet removed. nullopt iff empty.
  std::optional<PageId> select_victim();
  /// Stops tracking a page (eviction or migration elsewhere). Returns
  /// whether a dirty bit was parked on it.
  bool erase(PageId page) { return ring_.node(ring_.erase(page)).dirty; }

  /// MRU-to-LRU page order (for tests).
  template <typename Fn>
  void for_each_mru_to_lru(Fn&& fn) const {
    ring_.for_each([&fn](const PageRing::Node& node) { fn(node.page); });
  }
  /// Calls fn(page) for every page with a parked dirty bit.
  template <typename Fn>
  void for_each_dirty(Fn&& fn) const {
    ring_.for_each([&fn](const PageRing::Node& node) {
      if (node.dirty) fn(node.page);
    });
  }

 private:
  PageRing ring_;
};

}  // namespace hymem::policy
