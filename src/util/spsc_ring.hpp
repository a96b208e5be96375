// Fixed-capacity single-producer/single-consumer ring buffer — the channel
// between the sampling tap (producer) and the sampled policy's migrator
// (consumer), which runs on the replaying thread at drain boundaries.
//
// The design is the classic two-cursor ring (HeMem's pebs rings use the
// same shape): monotonically increasing head/tail cursors and a
// power-of-two slot array indexed by masking. A full ring rejects the push
// (callers count the drop — samples are droppable by design, migrations
// just happen later).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hymem::util {

/// Bounded FIFO ring over T (movable; trivially copyable in all hymem
/// uses). One thread pushes and pops.
template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (masked indexing); the
  /// effective value is reported by capacity().
  explicit SpscRing(std::size_t min_capacity) {
    HYMEM_CHECK_MSG(min_capacity > 0, "ring capacity must be positive");
    std::size_t cap = 1;
    while (cap < min_capacity) cap *= 2;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Enqueues `value` unless the ring is full. Returns whether the value
  /// was accepted.
  bool push(const T& value) {
    if (tail_ - head_ == slots_.size()) return false;
    slots_[static_cast<std::size_t>(tail_) & mask_] = value;
    ++tail_;
    return true;
  }

  /// Dequeues the oldest value, or nullopt when empty.
  std::optional<T> pop() {
    if (head_ == tail_) return std::nullopt;
    std::optional<T> value(
        std::move(slots_[static_cast<std::size_t>(head_) & mask_]));
    ++head_;
    return value;
  }

  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }

  bool empty() const { return size() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;  ///< Consumer cursor.
  std::uint64_t tail_ = 0;  ///< Producer cursor.
};

}  // namespace hymem::util
