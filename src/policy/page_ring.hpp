// The one page list of the simulator: tracked pages on circular lists,
// linked by 32-bit indexes over a node array sized at construction, with a
// flat PageId -> node index. Every page queue outside src/check keeps its
// pages here; each owner chooses the fields its nodes carry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/check.hpp"
#include "util/flat_page_map.hpp"
#include "util/types.hpp"

namespace hymem::policy {

/// The fields LruPolicy and ClockPolicy keep on each node: CLOCK's
/// reference bit, and a dirty bit parked by a DRAM write hit (see
/// HybridPolicy::publish_dirty).
struct PageBits {
  bool ref = false;
  bool dirty = false;
};

/// `lists` circular doubly linked lists of pages over one contiguous node
/// array: one sentinel per list at slot `list`, then `capacity` nodes
/// shared by all of them, indexed by a util::FlatPageMap<std::uint32_t>.
/// A sentinel's slot is a constant, so reaching a list's ends never loads
/// the capacity. Each node carries the owner's `Fields` (default-initialized
/// on insert). Everything is sized once, so no operation allocates. Calls
/// that take a list default to list 0.
template <typename Fields>
class PageRing {
 public:
  using Slot = std::uint32_t;

  struct Node : Fields {
    PageId page;
    Slot prev;
    Slot next;
  };

  explicit PageRing(std::size_t capacity, std::size_t lists = 1)
      : capacity_(capacity) {
    HYMEM_CHECK_MSG(capacity > 0, "ring capacity must be positive");
    HYMEM_CHECK_MSG(lists > 0, "a ring needs at least one list");
    HYMEM_CHECK_MSG(capacity + lists <= UINT32_MAX,
                    "ring capacity exceeds 32-bit indexing");
    nodes_.reserve(lists + capacity);
    for (std::size_t list = 0; list < lists; ++list) {
      const Slot s = sentinel(list);
      nodes_.push_back(Node{Fields{}, kInvalidPage, s, s});
    }
    nodes_.resize(lists + capacity);
    free_.reserve(capacity);
    // Pop order hands out low slots first, keeping the live prefix dense.
    for (std::size_t i = lists + capacity; i > lists; --i) {
      free_.push_back(static_cast<Slot>(i - 1));
    }
    index_.reserve(capacity);
  }

  std::size_t capacity() const { return capacity_; }
  /// Pages tracked, over all lists.
  std::size_t size() const { return index_.size(); }
  bool full() const { return size() >= capacity_; }
  bool contains(PageId page) const { return index_.contains(page); }

  /// The sentinel closes its list: first() and last() are its neighbours,
  /// and both equal sentinel() when the list is empty.
  static Slot sentinel(std::size_t list = 0) {
    return static_cast<Slot>(list);
  }
  Slot first(std::size_t list = 0) const { return nodes_[sentinel(list)].next; }
  Slot last(std::size_t list = 0) const { return nodes_[sentinel(list)].prev; }
  Node& node(Slot slot) { return nodes_[slot]; }
  const Node& node(Slot slot) const { return nodes_[slot]; }

  /// Slot of a tracked page, or nullptr. `hash` must equal
  /// util::hash_page_id(page).
  const Slot* find(PageId page, std::uint64_t hash) const {
    return index_.find_hashed(page, hash);
  }
  const Slot* find(PageId page) const { return index_.find(page); }
  /// Warms the index slot a coming lookup of `page` will probe.
  void prefetch(PageId page) const { index_.prefetch(page); }

  /// Tracks `page` (absent; the ring not full) in a node with default
  /// fields, linked just before `pos`. Returns its slot.
  Slot insert_before(Slot pos, PageId page) {
    HYMEM_CHECK_MSG(!full(), "insert into a full ring");
    const auto [index_slot, inserted] = index_.try_emplace(page);
    HYMEM_CHECK_MSG(inserted, "insert of tracked page");
    const Slot slot = free_.back();
    free_.pop_back();
    *index_slot = slot;
    nodes_[slot] = Node{Fields{}, page, 0, 0};
    link_before(slot, pos);
    return slot;
  }

  /// Stops tracking `page` (must be tracked). Returns its slot, whose node
  /// keeps its contents (links included) until the next insert.
  Slot erase(PageId page) {
    const std::optional<Slot> slot = index_.take(page);
    HYMEM_CHECK_MSG(slot.has_value(), "erase of untracked page");
    unlink(*slot);
    free_.push_back(*slot);
    return *slot;
  }

  /// Moves a linked node to the front of `list`, which may be another
  /// list; a no-op for its first node. This is every LRU hit's splice, so
  /// it links the node between the sentinel (a constant slot) and the old
  /// front, read before the unlink, which cannot change it. Linking it
  /// before the old front (link_before(slot, front)) would reload the
  /// front's `prev` right behind unlink's stores, a load that waits on
  /// them: linking after the sentinel halved the splice on x264/4's page
  /// sequence (6.4 to 3.4 ns).
  void move_to_front(Slot slot, std::size_t list = 0) {
    const Slot head = sentinel(list);
    const Slot front = nodes_[head].next;
    if (front == slot) return;
    unlink(slot);
    nodes_[slot].prev = head;
    nodes_[slot].next = front;
    nodes_[head].next = slot;
    nodes_[front].prev = slot;
  }

  /// Calls fn(node) for every node of `list` from first() to last().
  template <typename Fn>
  void for_each(Fn&& fn, std::size_t list = 0) const {
    const Slot end = sentinel(list);
    for (Slot i = nodes_[end].next; i != end; i = nodes_[i].next) fn(nodes_[i]);
  }

 private:
  void unlink(Slot slot) {
    nodes_[nodes_[slot].prev].next = nodes_[slot].next;
    nodes_[nodes_[slot].next].prev = nodes_[slot].prev;
  }
  void link_before(Slot slot, Slot pos) {
    const Slot prev = nodes_[pos].prev;
    nodes_[slot].prev = prev;
    nodes_[slot].next = pos;
    nodes_[prev].next = slot;
    nodes_[pos].prev = slot;
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;  // one sentinel per list, then capacity_ nodes
  std::vector<Slot> free_;   // unused slots (stack)
  util::FlatPageMap<Slot> index_;
};

}  // namespace hymem::policy
