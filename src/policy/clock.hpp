// CLOCK (second-chance) replacement: the approximation of LRU used by real
// kernels and the base algorithm of CLOCK-DWF's NVM module.
#pragma once

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>

#include "util/types.hpp"

namespace hymem::policy {

/// Circular buffer of pages with reference bits and a sweeping hand.
class ClockPolicy {
 public:
  explicit ClockPolicy(std::size_t capacity);

  /// Maximum number of pages the policy may hold.
  std::size_t capacity() const { return capacity_; }
  /// Pages currently tracked.
  std::size_t size() const { return index_.size(); }
  bool full() const { return size() >= capacity_; }
  bool contains(PageId page) const { return index_.count(page) > 0; }

  /// Sets a tracked page's reference bit.
  void on_hit(PageId page, AccessType type);
  /// Starts tracking a new page just behind the hand (must not be present;
  /// must not be full: callers evict first via select_victim()/erase()).
  void insert(PageId page, AccessType type);
  /// Sweeps the hand to the next unreferenced page, clearing reference bits
  /// on the way; the page is not yet removed. nullopt iff empty.
  std::optional<PageId> select_victim();
  /// Stops tracking a page (eviction or migration elsewhere).
  void erase(PageId page);

  /// Reference bit of a tracked page (for tests).
  bool ref_bit(PageId page) const;

 private:
  struct Entry {
    PageId page;
    bool ref;
  };
  using Ring = std::list<Entry>;

  void advance_hand();

  std::size_t capacity_;
  Ring ring_;           // circular order; hand_ sweeps towards end then wraps
  Ring::iterator hand_ = ring_.end();
  std::unordered_map<PageId, Ring::iterator> index_;
};

}  // namespace hymem::policy
