// CLOCK (second-chance) replacement: the approximation of LRU used by real
// kernels and the base algorithm of both CLOCK-DWF modules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "policy/page_ring.hpp"
#include "util/types.hpp"

namespace hymem::policy {

/// A ring of pages with reference bits and a sweeping hand, stored in a
/// PageRing: ring order is list order from first() to last(), wrapping
/// around, and the hand is a slot (the sentinel while the ring is empty).
class ClockPolicy {
 public:
  using Ring = PageRing<PageBits>;
  using Slot = Ring::Slot;
  using Node = Ring::Node;

  explicit ClockPolicy(std::size_t capacity)
      : ring_(capacity), hand_(ring_.sentinel()) {}

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
  /// The node at `slot`, whose reference and parked dirty bits a caller
  /// that found the page may set.
  Node& node(Slot slot) { return ring_.node(slot); }

  /// Sets a tracked page's reference bit.
  void on_hit(PageId page, AccessType type);
  /// Starts tracking a new page just behind the hand (must not be present;
  /// must not be full: callers evict first via select_victim()/erase()).
  void insert(PageId page, AccessType type);
  /// Sweeps the hand to the next unreferenced page, clearing reference bits
  /// on the way; the page is not yet removed. nullopt iff empty.
  std::optional<PageId> select_victim();
  /// Stops tracking a page (eviction or migration elsewhere); a hand on it
  /// moves on to the next page. Returns whether a dirty bit was parked on
  /// it.
  bool erase(PageId page);

  /// Reference bit of a tracked page (for tests).
  bool ref_bit(PageId page) const;

  /// Calls fn(page, ref_bit) for every tracked page in ring order, starting
  /// at the hand (the page the next sweep inspects first). For tests and
  /// src/check.
  template <typename Fn>
  void for_each_from_hand(Fn&& fn) const {
    Slot slot = hand_;
    for (std::size_t n = 0; n < size(); ++n) {
      fn(ring_.node(slot).page, ring_.node(slot).ref);
      slot = after(slot);
    }
  }
  /// Calls fn(page) for every page with a parked dirty bit.
  template <typename Fn>
  void for_each_dirty(Fn&& fn) const {
    ring_.for_each([&fn](const Node& node) {
      if (node.dirty) fn(node.page);
    });
  }

 private:
  /// The page after `slot` in ring order, wrapping past the sentinel.
  Slot after(Slot slot) const {
    const Slot next = ring_.node(slot).next;
    return next == ring_.sentinel() ? ring_.first() : next;
  }

  Ring ring_;
  Slot hand_;
};

}  // namespace hymem::policy
