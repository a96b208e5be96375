// Per-tier residency queue of the sampled policy: FIFO in fault order.
//
// Deliberately *not* an LRU. A sampling OS sees page faults for free but
// does not see per-access recency (that is exactly the information the tap
// only samples), so within a tier the only ordering available at zero cost
// is insertion order; cross-tier movement is driven by sampled hotness.
// Structurally this is a policy::PageRing whose nodes carry no fields.
#pragma once

#include <cstddef>
#include <optional>

#include "policy/page_ring.hpp"
#include "util/types.hpp"

namespace hymem::sample {

/// FIFO membership queue over one tier's resident pages, sized to the
/// tier's frames (at least 1: a config may leave NVM empty). No
/// per-operation allocation.
class TierQueue {
 public:
  explicit TierQueue(std::size_t frames) : ring_(frames > 0 ? frames : 1) {}

  std::size_t size() const { return ring_.size(); }
  bool empty() const { return size() == 0; }
  bool contains(PageId page) const { return ring_.contains(page); }

  /// Starts tracking `page` (must be absent, the queue not full). Newest
  /// pages sit at the front.
  void insert(PageId page) { ring_.insert_before(ring_.first(), page); }

  /// The oldest tracked page (FIFO victim); nullopt iff empty.
  std::optional<PageId> victim() const {
    if (empty()) return std::nullopt;
    return ring_.node(ring_.last()).page;
  }

  /// Stops tracking `page` (must be present).
  void erase(PageId page) { ring_.erase(page); }

  /// Newest-to-oldest traversal (invariant checking).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    ring_.for_each([&fn](const Ring::Node& n) { fn(n.page); });
  }

 private:
  struct NoFields {};
  using Ring = policy::PageRing<NoFields>;

  Ring ring_;  // front = newest fault
};

}  // namespace hymem::sample
