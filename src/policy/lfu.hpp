// LFU (Least Frequently Used) with FIFO tie-breaking: the frequency-only
// endpoint. Not behind any policy name; a reference point for the property
// suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>

#include "util/types.hpp"

namespace hymem::policy {

/// LFU replacement; O(log n) per operation via an ordered (count, seq) index.
class LfuPolicy {
 public:
  explicit LfuPolicy(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return pages_.size(); }
  bool full() const { return size() >= capacity_; }
  bool contains(PageId page) const { return pages_.count(page) > 0; }

  void on_hit(PageId page, AccessType type);
  void insert(PageId page, AccessType type);
  /// The least frequently used page (oldest on ties), not yet removed.
  /// nullopt iff empty.
  std::optional<PageId> select_victim();
  void erase(PageId page);

  /// Access count of a tracked page (for tests).
  std::uint64_t frequency(PageId page) const;

 private:
  struct Key {
    std::uint64_t count;
    std::uint64_t seq;  // insertion order; older evicts first on ties
    PageId page;
    auto operator<=>(const Key&) const = default;
  };

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::set<Key> order_;
  std::unordered_map<PageId, Key> pages_;
};

}  // namespace hymem::policy
