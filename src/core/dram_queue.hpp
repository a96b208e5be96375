// DRAM-side queue of the migration scheme: a plain LRU (Algorithm 1 keeps
// both queues unmodified LRU) that additionally carries the open-promotion
// hit counter inside the queue node. The scheme needs that counter on every
// DRAM demand hit to score promotions; storing it next to the recency hook
// means the per-access DRAM-hit path pays exactly one index probe — the
// node found for the LRU splice is the node holding the counter (a separate
// page -> counter map costs a second hash probe per hit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "util/check.hpp"
#include "util/flat_page_map.hpp"
#include "util/intrusive_list.hpp"
#include "util/slab_pool.hpp"
#include "util/types.hpp"

namespace hymem::core {

/// LRU queue over DRAM-resident pages with per-node promotion scoring.
/// Nodes live in slab storage; the index is a flat map pre-sized to
/// `capacity` — no per-operation allocation, no rehashing.
class DramLruQueue {
 public:
  /// One tracked page. Public so the block-replay fast path can splice a
  /// found node directly; treat as opaque outside hymem::core.
  ///
  /// The open-promotion flag lives in the top bit of `score` so the node is
  /// exactly 32 bytes — the DRAM-hit path chases a random node pointer per
  /// access, and a third less node footprint is a third fewer cache lines
  /// under that random walk. A promotion's hit count cannot reach 2^62.
  ///
  /// Bit 62 is a *parked dirty mark*: the scheme's serve() classifies
  /// writes with the same single index probe as reads and parks the
  /// page-table dirty bit here instead of paying a second (page-table) probe
  /// per write. The scheme publishes it to the real page-table entry when
  /// the page leaves DRAM — eviction, the only consumer of the dirty bit,
  /// can only happen after that demotion.
  struct Node {
    PageId page = kInvalidPage;
    std::uint64_t score = 0;  // kPromotedBit | kDirtyBit | hits
    ListHook hook;

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

  explicit DramLruQueue(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  bool full() const { return size() >= capacity_; }
  bool contains(PageId page) const { return index_.contains(page); }

  /// Records a demand hit: moves the page to MRU and, if it is an open
  /// promotion, counts the hit towards its score.
  void on_hit(PageId page);

  /// Node cursor for the block-replay fast path, probed with the
  /// caller-memoized key hash; nullptr when the page is untracked. Valid
  /// until the next insert/erase.
  Node* find_node_hashed(PageId page, std::uint64_t hash) {
    Node* const* found = index_.find_hashed(page, hash);
    return found != nullptr ? *found : nullptr;
  }

  /// `find_node_hashed` without a memoized hash (demotion-path use).
  Node* find_node(PageId page) {
    return find_node_hashed(page, util::hash_page_id(page));
  }

  /// The splice/scoring half of on_hit, applied to an already-found node
  /// (header-inline so it fuses into the block loop). Branchless: adding
  /// `score >> 63` increments the hit count iff the promoted bit is set.
  void on_hit_node(Node& node) {
    list_.move_to_front(node);
    node.score += node.score >> 63;
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
    list_.for_each([&fn](const Node& n) { fn(n.page); });
  }
  /// Calls fn(page) for every page with a parked dirty mark.
  template <typename Fn>
  void for_each_dirty(Fn&& fn) const {
    list_.for_each([&fn](const Node& n) {
      if (n.dirty()) fn(n.page);
    });
  }

 private:
  std::size_t capacity_;
  IntrusiveList<Node, &Node::hook> list_;  // front = MRU
  util::SlabPool<Node> pool_;
  util::FlatPageMap<Node*> index_;
};

}  // namespace hymem::core
