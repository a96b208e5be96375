// Open-addressing hash map keyed by PageId — the hot-path index of every
// per-page structure (page table, LRU indexes, windowed-queue index,
// promotion scoreboard).
//
// Why not std::unordered_map: the node-based layout costs one heap
// allocation per insert and one dependent pointer chase per lookup, and its
// chaining metadata evicts useful cache lines. This map stores keys and
// values in two parallel power-of-two arrays, probes linearly, and erases by
// backward shift — no tombstones, so probe sequences never degrade with
// churn. Keys live in their own array so a probe walks 8 keys per cache
// line and never pulls value bytes it does not need; the value array is
// touched exactly once, on match. FlatPageSet is the same table with an
// empty value type, for "which pages were seen" (footprint counts, first
// touch).
//
// Load factor. A table never runs above 1/2: linear probing without
// per-slot metadata clusters quickly, and the backward-shift erase pays for
// every extra cluster entry. A table sized up front by reserve() — the page
// table and every PageRing index, which never grow — goes further, to at
// most 1/8 while it has fewer than 2^15 slots. At the replay footprints the
// paper's workloads have (tens to a few thousand pages) those tables sit
// in L1/L2, so what a probe costs is not a miss but a mispredicted branch
// each time a hit lands past its home slot or a miss scans a cluster; at
// 1/8 most probes end at the home slot. Past 2^15 slots the trade turns: an
// uncapped 1/8 table slowed dedup/1's two-LRU replay (128,115 pages) from
// 21.5 to 29.1 ns per access, because beyond L2 a sparse table buys
// predictable branches with cache misses. So a table reserved for more
// than 16,384 entries keeps its 1/2 sizing. Tables that grow through
// try_emplace stay at 1/2 as well: sample::HotnessBoard::cool reports pages
// in table order, and sampled-lru's output bytes depend on that order.
//
// Contract: PageId `kInvalidPage` is reserved as the empty-slot sentinel and
// must never be inserted into the map (nothing in hymem uses it as a real
// page — it is already the "no page" sentinel everywhere else). The set
// accepts it, since a footprint count must take any trace's addresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace hymem::util {

/// Finalizer-strength mixer (splitmix64). Page IDs decode from addresses in
/// contiguous regions, so keys are dense and low-entropy; weaker
/// locality-preserving hashes were tried and rejected — they pack dense key
/// runs into long 100%-full clusters, which makes the backward-shift erase
/// walk (and any aliased probe) degrade far more than the saved cache
/// misses are worth.
constexpr std::uint64_t hash_page_id(PageId key) {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Linear-probe open-addressing map PageId -> V. V must be default
/// constructible and movable (values are moved during backward-shift erase
/// and rehash).
template <typename V>
class FlatPageMap {
 public:
  FlatPageMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots in the table (0 before the first insert or reserve).
  std::size_t capacity() const { return keys_.size(); }

  /// Grows the table so `n` entries fit without rehashing, at a load of at
  /// most 1/2, and at most 1/8 below kSparseSlots (see the header comment).
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap / 2 < n || (cap < kSparseSlots && cap / 8 < n)) cap *= 2;
    if (cap > keys_.size()) rehash(cap);
  }

  V* find(PageId key) { return find_hashed(key, hash_page_id(key)); }
  const V* find(PageId key) const {
    return const_cast<FlatPageMap*>(this)->find(key);
  }

  /// `find` with the hash supplied by the caller. The block-replay fast path
  /// probes up to three maps (page table + both queue indexes) with the
  /// *same* key-only hash per access; memoizing it once at decode time
  /// instead of recomputing the mixer per probe is a measurable share of the
  /// per-access budget. `hash` must equal hash_page_id(key).
  V* find_hashed(PageId key, std::uint64_t hash) {
    if (keys_.empty()) return nullptr;
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      if (keys_[i] == key) return &values_[i];
      if (keys_[i] == kInvalidPage) {
        // An absent key is usually about to be inserted (fault fills, LRU
        // refills); warm the value line of the slot the insert will take —
        // the probe above only touched the key array.
        __builtin_prefetch(&values_[i], /*rw=*/1);
        return nullptr;
      }
    }
  }
  const V* find_hashed(PageId key, std::uint64_t hash) const {
    return const_cast<FlatPageMap*>(this)->find_hashed(key, hash);
  }
  bool contains(PageId key) const { return find(key) != nullptr; }

  /// Hints the CPU to pull `key`'s home slot into cache. Replay loops know
  /// the access sequence ahead of time, so probing can be overlapped with
  /// the work of earlier accesses instead of stalling on a miss per probe.
  void prefetch(PageId key) const { prefetch_hashed(hash_page_id(key)); }

  /// `prefetch` with the hash supplied by the caller (see find_hashed).
  void prefetch_hashed(std::uint64_t hash) const {
    if (!keys_.empty()) {
      const std::size_t home = hash & mask_;
      __builtin_prefetch(&keys_[home]);
      __builtin_prefetch(&values_[home]);
    }
  }

  /// Inserts `{key, V{}}` if absent. Returns {value slot, inserted}. The
  /// pointer is invalidated by any later insert or erase.
  std::pair<V*, bool> try_emplace(PageId key) {
    HYMEM_CHECK_MSG(key != kInvalidPage, "kInvalidPage is the empty sentinel");
    if (keys_.empty() || size_ + 1 > keys_.size() / 2) {
      rehash(keys_.empty() ? kMinCapacity : keys_.size() * 2);
    }
    for (std::size_t i = hash_page_id(key) & mask_;; i = (i + 1) & mask_) {
      if (keys_[i] == key) return {&values_[i], false};
      if (keys_[i] == kInvalidPage) {
        keys_[i] = key;
        values_[i] = V{};
        ++size_;
        return {&values_[i], true};
      }
    }
  }

  /// Removes `key` if present (backward-shift: the probe chain after the
  /// hole is compacted, so no tombstones exist). Returns whether it was
  /// present.
  bool erase(PageId key) { return take(key).has_value(); }

  /// Removes `key` and returns its value in the same single probe sequence,
  /// or nullopt if absent.
  std::optional<V> take(PageId key) {
    if (keys_.empty()) return std::nullopt;
    std::size_t i = hash_page_id(key) & mask_;
    for (;; i = (i + 1) & mask_) {
      if (keys_[i] == key) break;
      if (keys_[i] == kInvalidPage) return std::nullopt;
    }
    std::optional<V> taken(std::move(values_[i]));
    // Shift the displaced suffix of the cluster back over the hole.
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      if (keys_[j] == kInvalidPage) break;
      const std::size_t home = hash_page_id(keys_[j]) & mask_;
      // The entry may move into the hole only if its home position does not
      // lie strictly inside (hole, j] — i.e. the wrap-aware displacement
      // test.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        values_[hole] = std::move(values_[j]);
        hole = j;
      }
    }
    keys_[hole] = kInvalidPage;
    values_[hole] = V{};
    --size_;
    return taken;
  }

  /// Calls fn(PageId, V&) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kInvalidPage) fn(keys_[i], values_[i]);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kInvalidPage) fn(keys_[i], values_[i]);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kSparseSlots = std::size_t{1} << 15;

  void rehash(std::size_t new_capacity) {
    std::vector<PageId> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_capacity, kInvalidPage);
    values_.assign(new_capacity, V{});
    mask_ = new_capacity - 1;
    for (std::size_t k = 0; k < old_keys.size(); ++k) {
      if (old_keys[k] == kInvalidPage) continue;
      for (std::size_t i = hash_page_id(old_keys[k]) & mask_;;
           i = (i + 1) & mask_) {
        if (keys_[i] == kInvalidPage) {
          keys_[i] = old_keys[k];
          values_[i] = std::move(old_values[k]);
          break;
        }
      }
    }
  }

  std::vector<PageId> keys_;
  std::vector<V> values_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// The set of pages seen: a FlatPageMap whose values are empty, so an insert
/// probes and writes the key array only. Unlike the map it holds every
/// PageId, kInvalidPage included (kept as a flag beside the table).
class FlatPageSet {
 public:
  std::size_t size() const { return pages_.size() + (has_invalid_ ? 1 : 0); }

  /// Adds `key`; returns whether it was absent.
  bool insert(PageId key) {
    if (key == kInvalidPage) return !std::exchange(has_invalid_, true);
    return pages_.try_emplace(key).second;
  }

 private:
  struct None {};
  FlatPageMap<None> pages_;
  bool has_invalid_ = false;
};

}  // namespace hymem::util
