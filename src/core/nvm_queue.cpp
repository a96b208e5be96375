#include "core/nvm_queue.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/fraction.hpp"

namespace hymem::core {

CountedLruQueue::CountedLruQueue(std::size_t capacity, double read_perc,
                                 double write_perc)
    : ring_(capacity),
      read_win_{util::snap_ceil_fraction(read_perc, capacity), 0,
                ring_.sentinel(), 0, /*idx=*/0},
      write_win_{util::snap_ceil_fraction(write_perc, capacity), 0,
                 ring_.sentinel(), 0, /*idx=*/1} {}

const CountedLruQueue::Node& CountedLruQueue::tracked(PageId page) const {
  const Slot* slot = ring_.find(page);
  HYMEM_CHECK(slot != nullptr);
  return ring_.node(*slot);
}

void CountedLruQueue::leave(Window& w, Slot slot) {
  Node& node = ring_.node(slot);
  if (!node.in_window(w.idx)) return;
  // A lone member was first, so its predecessor is the sentinel.
  if (w.boundary == slot) w.boundary = node.prev;
  w.sum -= node.counter(w.idx);
  node.packed[w.idx] = 0;
  --w.count;
}

void CountedLruQueue::refill(Window& w) {
  while (w.count < std::min(w.target, ring_.size())) {
    const Slot next = ring_.node(w.boundary).next;
    ring_.node(next).packed[w.idx] = Node::kInWindowBit;
    w.boundary = next;
    ++w.count;
  }
}

std::uint64_t CountedLruQueue::record_hit(PageId page, AccessType type) {
  const Slot* slot = ring_.find(page);
  HYMEM_CHECK_MSG(slot != nullptr, "hit on untracked page");
  return record_hit_at(*slot, type);
}

void CountedLruQueue::insert_front(PageId page) {
  const Slot slot = ring_.insert_before(ring_.first(), page);
  enter_front(read_win_, slot);
  enter_front(write_win_, slot);
}

void CountedLruQueue::erase(PageId page) {
  const Slot slot = ring_.erase(page);
  leave(read_win_, slot);
  leave(write_win_, slot);
  refill(read_win_);
  refill(write_win_);
}

CountedLruQueue::WindowStats CountedLruQueue::window_stats(
    const Window& w) const {
  WindowStats stats;
  stats.target = w.target;
  stats.pages = w.count;
  stats.counter_sum = w.sum;
  return stats;
}

std::optional<PageId> CountedLruQueue::lru_victim() const {
  if (size() == 0) return std::nullopt;
  return ring_.node(ring_.last()).page;
}

bool CountedLruQueue::in_read_window(PageId page) const {
  return tracked(page).in_window(0);
}

bool CountedLruQueue::in_write_window(PageId page) const {
  return tracked(page).in_window(1);
}

std::uint64_t CountedLruQueue::read_counter(PageId page) const {
  return tracked(page).counter(0);
}

std::uint64_t CountedLruQueue::write_counter(PageId page) const {
  return tracked(page).counter(1);
}

void CountedLruQueue::check_invariants() const {
  for (const Window* w : {&read_win_, &write_win_}) {
    HYMEM_CHECK(w->count == std::min(w->target, ring_.size()));
    // The window must be exactly the first `count` nodes, ending at the
    // boundary (the sentinel when empty).
    std::size_t seen = 0;
    std::uint64_t walked_sum = 0;
    bool prefix_over = false;
    const Node* last_in = &ring_.node(ring_.sentinel());
    ring_.for_each([&](const Node& n) {
      if (n.in_window(w->idx)) {
        HYMEM_CHECK_MSG(!prefix_over, "window is not a prefix");
        ++seen;
        walked_sum += n.counter(w->idx);
        last_in = &n;
      } else {
        prefix_over = true;
        HYMEM_CHECK_MSG(n.counter(w->idx) == 0,
                        "counter not reset outside window");
      }
    });
    HYMEM_CHECK(seen == w->count);
    HYMEM_CHECK_MSG(walked_sum == w->sum,
                    "incremental window counter sum drifted from the walk");
    HYMEM_CHECK(&ring_.node(w->boundary) == last_in);
  }
}

}  // namespace hymem::core
