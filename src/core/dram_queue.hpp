// DRAM-side queue of the migration scheme: a plain LRU (Algorithm 1 keeps
// both queues unmodified LRU) that additionally carries the open-promotion
// hit counter inside the queue node. The scheme needs that counter on every
// DRAM demand hit to score promotions; storing it in the node of the
// recency list means the per-access DRAM-hit path pays exactly one index
// probe — the slot found for the LRU splice is the node holding the counter
// (a separate page -> counter map costs a second hash probe per hit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "policy/page_ring.hpp"
#include "util/types.hpp"

namespace hymem::core {

/// The field the DRAM queue keeps on each node: the promotion score.
///
/// The open-promotion flag lives in the top bit of `score`, so the node is
/// 24 bytes — the DRAM-hit path splices a random node per access, and less
/// node footprint is fewer cache lines under that random walk. A
/// promotion's hit count cannot reach 2^62.
///
/// Bit 62 is a *parked dirty mark*: the scheme's serve() classifies writes
/// with the same single index probe as reads and parks the page-table dirty
/// bit here instead of paying a second (page-table) probe per write. The
/// scheme publishes it to the real page-table entry when the page leaves
/// DRAM — eviction, the only consumer of the dirty bit, can only happen
/// after that demotion.
struct PromotionScore {
  std::uint64_t score = 0;  // kPromotedBit | kDirtyBit | hits

  static constexpr int kDirtyShift = 62;
  static constexpr std::uint64_t kPromotedBit = 1ULL << 63;
  static constexpr std::uint64_t kDirtyBit = 1ULL << kDirtyShift;
  bool promoted() const { return (score & kPromotedBit) != 0; }
  bool dirty() const { return (score & kDirtyBit) != 0; }
  /// Parks the dirty mark iff `write`, with arithmetic instead of a branch
  /// on the hit path's access type.
  void mark_dirty_if(bool write) {
    score |= static_cast<std::uint64_t>(write) << kDirtyShift;
  }
  std::uint64_t hits() const { return score & ~(kPromotedBit | kDirtyBit); }
};

/// LRU queue over DRAM-resident pages with per-node promotion scoring, in a
/// policy::PageRing running from the MRU page at first() to the LRU page at
/// last(). No per-operation allocation, no rehashing.
class DramLruQueue {
 public:
  using Ring = policy::PageRing<PromotionScore>;
  using Slot = Ring::Slot;
  using Node = Ring::Node;

  explicit DramLruQueue(std::size_t capacity) : ring_(capacity) {}

  std::size_t capacity() const { return ring_.capacity(); }
  std::size_t size() const { return ring_.size(); }
  bool full() const { return ring_.full(); }
  bool contains(PageId page) const { return ring_.contains(page); }

  /// Records a demand hit: moves the page to MRU and, if it is an open
  /// promotion, counts the hit towards its score.
  void on_hit(PageId page);

  /// Slot of a tracked page, probed with the caller-memoized key hash (must
  /// equal util::hash_page_id(page)); nullptr when untracked.
  const Slot* find(PageId page, std::uint64_t hash) const {
    return ring_.find(page, hash);
  }
  const Node& node(Slot slot) const { return ring_.node(slot); }

  /// on_hit applied to a found slot (header-inline so it fuses into the
  /// block loop); returns the node, whose dirty mark the caller may park.
  /// Branchless: adding `score >> 63` increments the hit count iff the
  /// promoted bit is set.
  Node& touch(Slot slot) {
    ring_.move_to_front(slot);
    Node& node = ring_.node(slot);
    node.score += node.score >> 63;
    return node;
  }

  /// Starts tracking `page` at the MRU position (must be absent, queue not
  /// full). `promoted` opens a promotion with a zeroed hit score.
  void insert(PageId page, bool promoted);

  /// The page next in line for demotion (LRU tail); nullopt iff empty.
  std::optional<PageId> lru_victim() const;

  /// Stops tracking `page` (demotion or eviction). Returns its hit score if
  /// it was an open promotion, nullopt otherwise.
  std::optional<std::uint64_t> erase(PageId page);

  /// Open-promotion hit score of `page` (for tests); nullopt when the page
  /// is not an open promotion.
  std::optional<std::uint64_t> promotion_hits(PageId page) const;

  /// MRU-to-LRU traversal (invariant checking, differential diffing).
  template <typename Fn>
  void for_each_mru_to_lru(Fn&& fn) const {
    ring_.for_each([&fn](const Node& n) { fn(n.page); });
  }
  /// Calls fn(page) for every page with a parked dirty mark.
  template <typename Fn>
  void for_each_dirty(Fn&& fn) const {
    ring_.for_each([&fn](const Node& n) {
      if (n.dirty()) fn(n.page);
    });
  }

 private:
  Ring ring_;
};

}  // namespace hymem::core
