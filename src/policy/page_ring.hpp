// The storage LruPolicy and ClockPolicy share: tracked pages on one circular
// list, linked by 32-bit indexes over a node array sized at construction,
// with a flat PageId -> node index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/check.hpp"
#include "util/flat_page_map.hpp"
#include "util/types.hpp"

namespace hymem::policy {

/// A circular doubly linked list of pages over one contiguous node array,
/// with the sentinel at slot `capacity`, indexed by a
/// util::FlatPageMap<std::uint32_t>. Everything is sized once, so no
/// operation allocates. Each node carries two bits for its owner: CLOCK's
/// reference bit, and a dirty bit parked by a DRAM write hit (see
/// HybridPolicy::publish_dirty).
class PageRing {
 public:
  using Slot = std::uint32_t;

  struct Node {
    PageId page;
    Slot prev;
    Slot next;
    bool ref;
    bool dirty;
  };

  explicit PageRing(std::size_t capacity) : capacity_(capacity) {
    HYMEM_CHECK_MSG(capacity > 0, "ring capacity must be positive");
    HYMEM_CHECK_MSG(capacity < UINT32_MAX,
                    "ring capacity exceeds 32-bit indexing");
    nodes_.resize(capacity + 1);
    nodes_[sentinel()] = Node{kInvalidPage, sentinel(), sentinel(), false, false};
    free_.reserve(capacity);
    // Pop order hands out low slots first, keeping the live prefix dense.
    for (std::size_t i = capacity; i > 0; --i) {
      free_.push_back(static_cast<Slot>(i - 1));
    }
    index_.reserve(capacity);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  bool full() const { return size() >= capacity_; }
  bool contains(PageId page) const { return index_.contains(page); }

  /// The sentinel closes the ring: first() and last() are its neighbours,
  /// and both equal sentinel() when the ring is empty.
  Slot sentinel() const { return static_cast<Slot>(capacity_); }
  Slot first() const { return nodes_[sentinel()].next; }
  Slot last() const { return nodes_[sentinel()].prev; }
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

  /// Tracks `page` (absent; the ring not full) in a node with both bits
  /// clear, linked just before `pos`. Returns its slot.
  Slot insert_before(Slot pos, PageId page) {
    HYMEM_CHECK_MSG(!full(), "insert into a full ring");
    const auto [index_slot, inserted] = index_.try_emplace(page);
    HYMEM_CHECK_MSG(inserted, "insert of tracked page");
    const Slot slot = free_.back();
    free_.pop_back();
    *index_slot = slot;
    nodes_[slot] = Node{page, 0, 0, false, false};
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

  /// Moves a linked node to just before `pos` (a different slot).
  void move_before(Slot slot, Slot pos) {
    unlink(slot);
    link_before(slot, pos);
  }

  /// Calls fn(node) for every tracked page from first() to last().
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Slot i = first(); i != sentinel(); i = nodes_[i].next) fn(nodes_[i]);
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
  std::vector<Node> nodes_;  // [0, capacity_) + the sentinel at the end
  std::vector<Slot> free_;   // unused slots (stack)
  util::FlatPageMap<Slot> index_;
};

}  // namespace hymem::policy
