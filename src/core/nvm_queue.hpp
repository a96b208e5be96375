// The NVM-side queue of the proposed scheme: an *unmodified* LRU order plus
// windowed read/write counters layered on top (Fig. 3 / Algorithm 1).
//
// Counters exist only for the top `read_perc` / `write_perc` fraction of
// queue positions. A page falling past a window boundary has that counter
// reset (Algorithm 1 lines 8-9); a hit on a page outside a window re-enters
// it with counter = 1 (lines 13-14 / 19-20). This windowing is what filters
// out (a) cold pages that merely sit in NVM long enough to accumulate
// accesses and (b) pages that bounce around the queue — the two failure
// modes Section IV identifies for naive whole-queue counters.
//
// Implementation note: both windows are maintained as strict prefixes of the
// LRU list with O(1) incremental boundary updates per operation (no scans).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "policy/page_ring.hpp"
#include "util/types.hpp"

namespace hymem::core {

/// The fields the NVM queue keeps on each node: its two windowed counters.
///
/// Each counter packs its membership flag into the top bit of a 32-bit
/// word, making the node 24 bytes: the NVM-hit and demotion paths splice a
/// random node, so fewer node cache lines is fewer misses. Counters
/// saturate at 2^31 - 1 — a promotion threshold at or above that is
/// unreachable either way.
struct WindowCounters {
  std::uint32_t packed[2] = {0, 0};  // [kRead, kWrite]: flag<<31 | counter

  static constexpr std::uint32_t kInWindowBit = 1u << 31;
  static constexpr std::uint32_t kCounterMax = kInWindowBit - 1;
  bool in_window(int idx) const { return (packed[idx] & kInWindowBit) != 0; }
  std::uint32_t counter(int idx) const { return packed[idx] & kCounterMax; }
};

/// LRU queue with windowed access counters, in a policy::PageRing running
/// from the MRU page at first() to the LRU page at last().
class CountedLruQueue {
 public:
  using Ring = policy::PageRing<WindowCounters>;
  using Slot = Ring::Slot;
  using Node = Ring::Node;

  /// `capacity` pages; window sizes are ceil(perc * capacity), clamped to
  /// [0, capacity].
  CountedLruQueue(std::size_t capacity, double read_perc, double write_perc);

  std::size_t capacity() const { return ring_.capacity(); }
  std::size_t size() const { return ring_.size(); }
  bool contains(PageId page) const { return ring_.contains(page); }
  bool full() const { return ring_.full(); }

  std::size_t read_window_target() const { return read_win_.target; }
  std::size_t write_window_target() const { return write_win_.target; }

  /// Records a hit per Algorithm 1: promotes the page to MRU, maintains both
  /// windows (resetting counters that fall off), and updates the counter for
  /// the access type (increment inside the window, restart at 1 from
  /// outside). Returns the new value of that counter.
  std::uint64_t record_hit(PageId page, AccessType type);

  /// Slot of a tracked page, probed with the caller-memoized key hash (must
  /// equal util::hash_page_id(page)); nullptr when untracked.
  const Slot* find(PageId page, std::uint64_t hash) const {
    return ring_.find(page, hash);
  }

  /// record_hit applied to a found slot. Header-inline: ~10% of replayed
  /// accesses land here, and the whole body is a handful of link moves and
  /// counter updates — an out-of-line call roughly doubled its measured
  /// cost.
  std::uint64_t record_hit_at(Slot slot, AccessType type) {
    Node& node = ring_.node(slot);
    const int idx = type == AccessType::kRead ? 0 : 1;
    const bool was_in = node.in_window(idx);

    enter_front(read_win_, slot);
    enter_front(write_win_, slot);
    ring_.move_to_front(slot);

    // Algorithm 1 lines 10-22: increment inside the window, restart at 1
    // when (re-)entering from outside. A zero-width window tracks nothing.
    const bool now_in = node.in_window(idx);
    const std::uint32_t before = node.counter(idx);
    const std::uint32_t after =
        now_in ? (was_in ? std::min(before + 1, Node::kCounterMax) : 1u) : 0u;
    node.packed[idx] = (node.packed[idx] & Node::kInWindowBit) | after;
    // The new value never drops below the old one here (resets happen in
    // enter_front/leave, which already debit the sum).
    (idx == 0 ? read_win_ : write_win_).sum += after - before;
    return after;
  }

  /// Inserts a new page at the MRU position (demotion from DRAM or fill).
  void insert_front(PageId page);

  /// Removes a page (migration to DRAM, or eviction).
  void erase(PageId page);

  /// The LRU-end page, i.e. the eviction victim. nullopt when empty.
  std::optional<PageId> lru_victim() const;

  /// One window's aggregate state, for epoch sampling: configured target,
  /// current population and the sum of the member pages' counters. The sum
  /// is maintained incrementally (like the boundaries), so a snapshot is
  /// O(1) — epoch sampling never walks the queue.
  struct WindowStats {
    std::size_t target = 0;
    std::size_t pages = 0;
    std::uint64_t counter_sum = 0;
    double mean_counter() const {
      return pages ? static_cast<double>(counter_sum) /
                         static_cast<double>(pages)
                   : 0.0;
    }
  };
  WindowStats read_window_stats() const { return window_stats(read_win_); }
  WindowStats write_window_stats() const { return window_stats(write_win_); }

  // --- Introspection (tests, debugging) -------------------------------------
  bool in_read_window(PageId page) const;
  bool in_write_window(PageId page) const;
  std::uint64_t read_counter(PageId page) const;
  std::uint64_t write_counter(PageId page) const;
  /// MRU-to-LRU traversal.
  template <typename Fn>
  void for_each_mru_to_lru(Fn&& fn) const {
    ring_.for_each([&fn](const Node& n) { fn(n.page); });
  }
  /// Validates all window invariants (prefix property, counts, resets);
  /// throws on violation. O(n) — test use only.
  void check_invariants() const;

 private:
  /// One window over the list prefix. `idx` selects the node's packed
  /// flag+counter word (0 = read window, 1 = write window).
  struct Window {
    std::size_t target = 0;
    std::size_t count = 0;
    Slot boundary = 0;      // last slot inside the window; the sentinel
                            // while the window is empty
    std::uint64_t sum = 0;  // sum of member counters, kept incrementally
    int idx = 0;
  };

  const Node& tracked(PageId page) const;
  WindowStats window_stats(const Window& w) const;
  /// Handles window membership for the node at `slot`, about to move to (or
  /// just inserted at) the front (in-class so record_hit_at fuses into one
  /// inlined body).
  void enter_front(Window& w, Slot slot) {
    if (w.target == 0) return;
    Node& node = ring_.node(slot);
    if (node.in_window(w.idx)) {
      // Already a member: membership is unchanged; only the boundary can
      // shift if the boundary node itself is moving to the front.
      if (w.boundary == slot && w.count > 1) w.boundary = node.prev;
      return;
    }
    if (w.count >= w.target) {
      // Window is full: the current boundary page drops out and its counter
      // resets (Algorithm 1 lines 8-9). Its predecessor becomes the
      // boundary; where that is the sentinel (a lone member), the entering
      // node takes it just below.
      Node& leaver = ring_.node(w.boundary);
      w.sum -= leaver.counter(w.idx);
      leaver.packed[w.idx] = 0;
      w.boundary = leaver.prev;
    } else {
      ++w.count;
    }
    node.packed[w.idx] |= Node::kInWindowBit;
    if (w.boundary == ring_.sentinel()) w.boundary = slot;
  }
  /// Re-fills a window after a removal shrank it below min(target, size).
  void refill(Window& w);
  /// Removes the node at `slot` from a window it belongs to (after the ring
  /// erase, whose node keeps its links).
  void leave(Window& w, Slot slot);

  Ring ring_;
  Window read_win_;
  Window write_win_;
};

}  // namespace hymem::core
