// Random replacement: the no-information control. Not behind any policy
// name; a reference point for the property suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/random.hpp"
#include "util/types.hpp"

namespace hymem::policy {

/// Evicts a uniformly random tracked page. Deterministic under a fixed seed.
class RandomPolicy {
 public:
  RandomPolicy(std::size_t capacity, std::uint64_t seed = 1);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return pages_.size(); }
  bool full() const { return size() >= capacity_; }
  bool contains(PageId page) const { return index_.count(page) > 0; }

  void on_hit(PageId page, AccessType type);
  void insert(PageId page, AccessType type);
  /// A random tracked page, not yet removed. nullopt iff empty.
  std::optional<PageId> select_victim();
  void erase(PageId page);

 private:
  std::size_t capacity_;
  Rng rng_;
  std::vector<PageId> pages_;  // dense array for O(1) random pick
  std::unordered_map<PageId, std::size_t> index_;
};

}  // namespace hymem::policy
