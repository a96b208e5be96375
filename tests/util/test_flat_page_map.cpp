#include "util/flat_page_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace hymem::util {
namespace {

TEST(FlatPageMap, StartsEmpty) {
  FlatPageMap<int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.contains(7));
  EXPECT_FALSE(map.erase(7));
  EXPECT_FALSE(map.take(7).has_value());
}

TEST(FlatPageMap, InsertFindErase) {
  FlatPageMap<int> map;
  const auto [slot, inserted] = map.try_emplace(42);
  ASSERT_TRUE(inserted);
  *slot = 11;
  EXPECT_EQ(map.size(), 1u);
  const int* found = map.find(42);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 11);

  const auto [again, second] = map.try_emplace(42);
  EXPECT_FALSE(second);
  EXPECT_EQ(*again, 11);
  EXPECT_EQ(map.size(), 1u);

  EXPECT_TRUE(map.erase(42));
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(42), nullptr);
}

TEST(FlatPageMap, TakeReturnsValue) {
  FlatPageMap<int> map;
  *map.try_emplace(5).first = 50;
  const auto taken = map.take(5);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(*taken, 50);
  EXPECT_FALSE(map.contains(5));
}

TEST(FlatPageMap, RejectsSentinelKey) {
  FlatPageMap<int> map;
  EXPECT_THROW(map.try_emplace(kInvalidPage), std::logic_error);
}

// reserve() sizes a table that is not expected to grow: at most 1/8 full
// while it has fewer than 2^15 slots, never above 1/2, and above 16,384
// entries exactly the 1/2 sizing (the smallest power of two of at least 2n).
TEST(FlatPageMap, ReserveIsSparseBelowTheSlotCap) {
  constexpr std::size_t kSparseSlots = std::size_t{1} << 15;
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {1, 16},        {8, 64},        {4096, 32768},   {4097, 32768},
      {16384, 32768}, {16385, 65536}, {100000, 262144}};
  for (const auto& [n, capacity] : expected) {
    FlatPageMap<std::uint32_t> map;
    map.reserve(n);
    EXPECT_EQ(map.capacity(), capacity) << n;
    EXPECT_LE(2 * n, map.capacity()) << n;
    if (map.capacity() < kSparseSlots) {
      EXPECT_LE(8 * n, map.capacity()) << n;
    }
  }
}

TEST(FlatPageMap, ReserveAvoidsGrowth) {
  FlatPageMap<int> map;
  map.reserve(1000);
  // Pointers stay valid across inserts up to the reserved population —
  // i.e. no rehash happened.
  int* first = map.try_emplace(0).first;
  for (PageId p = 1; p < 1000; ++p) map.try_emplace(p);
  EXPECT_EQ(first, map.find(0));
  EXPECT_EQ(map.size(), 1000u);
}

TEST(FlatPageMap, DenseSequentialKeys) {
  // Page IDs decode from contiguous address regions, so dense runs are the
  // common case; they must probe and erase correctly despite clustering.
  FlatPageMap<std::uint64_t> map;
  for (PageId p = 0; p < 5000; ++p) *map.try_emplace(p).first = p * 3;
  for (PageId p = 0; p < 5000; ++p) {
    const std::uint64_t* value = map.find(p);
    ASSERT_NE(value, nullptr) << p;
    EXPECT_EQ(*value, p * 3);
  }
  // Erase every other key, then verify the survivors (backward-shift must
  // keep every remaining probe chain reachable).
  for (PageId p = 0; p < 5000; p += 2) EXPECT_TRUE(map.erase(p));
  for (PageId p = 0; p < 5000; ++p) {
    EXPECT_EQ(map.contains(p), p % 2 == 1) << p;
  }
}

// The core property test: a FlatPageMap and a std::unordered_map fed the
// same randomized churn must agree on every lookup, every erase result and
// the full iteration contents. Mixed key ranges force wrap-around clusters
// and long backward shifts.
TEST(FlatPageMap, MatchesUnorderedMapUnderChurn) {
  FlatPageMap<std::uint64_t> map;
  std::unordered_map<PageId, std::uint64_t> reference;
  Rng rng(1234);
  std::uint64_t next_value = 1;
  for (int step = 0; step < 200000; ++step) {
    // Narrow key range → heavy insert/erase of the *same* keys, which is
    // exactly the regime where stale tombstones or a wrong shift test break
    // probe chains.
    const PageId key = rng.next_below(512);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {  // insert (or re-find)
        const auto [slot, inserted] = map.try_emplace(key);
        const auto [it, ref_inserted] = reference.try_emplace(key, 0);
        ASSERT_EQ(inserted, ref_inserted);
        if (inserted) {
          *slot = next_value;
          it->second = next_value;
          ++next_value;
        } else {
          ASSERT_EQ(*slot, it->second);
        }
        break;
      }
      case 2: {  // erase
        ASSERT_EQ(map.erase(key), reference.erase(key) == 1);
        break;
      }
      case 3: {  // lookup
        const std::uint64_t* found = map.find(key);
        const auto it = reference.find(key);
        if (it == reference.end()) {
          ASSERT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  // Full-iteration parity at the end.
  std::vector<std::pair<PageId, std::uint64_t>> entries;
  map.for_each([&entries](PageId key, std::uint64_t& value) {
    entries.emplace_back(key, value);
  });
  ASSERT_EQ(entries.size(), reference.size());
  for (const auto& [key, value] : entries) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(value, it->second);
  }
}

// Same property under sparse, high-entropy keys (hashes land anywhere in
// the table, including the wrap-around seam).
TEST(FlatPageMap, MatchesUnorderedMapSparseKeys) {
  FlatPageMap<std::uint64_t> map;
  std::unordered_map<PageId, std::uint64_t> reference;
  Rng rng(99);
  std::vector<PageId> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back(rng.next() | (static_cast<PageId>(1) << 60));
  }
  for (int step = 0; step < 50000; ++step) {
    const PageId key = keys[rng.next_below(keys.size())];
    if (rng.next_bool(0.6)) {
      const auto [slot, inserted] = map.try_emplace(key);
      reference.try_emplace(key, 7);
      if (inserted) *slot = 7;
    } else {
      ASSERT_EQ(map.take(key).has_value(), reference.erase(key) == 1);
    }
  }
  ASSERT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    ASSERT_TRUE(map.contains(key));
  }
}

/// Keys whose home slot (for a table of `capacity`) is exactly `slot`.
std::vector<PageId> keys_homing_at(std::size_t slot, std::size_t capacity,
                                   std::size_t how_many) {
  std::vector<PageId> keys;
  for (PageId k = 0; keys.size() < how_many; ++k) {
    if ((hash_page_id(k) & (capacity - 1)) == slot) keys.push_back(k);
  }
  return keys;
}

// Backward-shift erase across the table seam: build a probe cluster that
// starts in the last slots and wraps to slot 0, then erase entries at every
// position in it. The wrap-aware displacement test must keep every survivor
// reachable.
TEST(FlatPageMap, EraseCompactsWrappedClusters) {
  constexpr std::size_t kCap = 16;  // kMinCapacity: never rehashes below 9
  // Five keys all homing at the last slot: they occupy slots 15,0,1,2,3.
  const std::vector<PageId> cluster = keys_homing_at(kCap - 1, kCap, 5);
  for (std::size_t victim = 0; victim < cluster.size(); ++victim) {
    FlatPageMap<std::uint64_t> map;
    for (const PageId k : cluster) *map.try_emplace(k).first = k * 10;
    ASSERT_TRUE(map.erase(cluster[victim]));
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (i == victim) {
        EXPECT_FALSE(map.contains(cluster[i]));
      } else {
        const std::uint64_t* found = map.find(cluster[i]);
        ASSERT_NE(found, nullptr) << "lost key " << cluster[i]
                                  << " after erasing " << cluster[victim];
        EXPECT_EQ(*found, cluster[i] * 10);
      }
    }
  }
}

// A wrapped cluster whose members home on *different* sides of the seam:
// the displaced suffix must only move entries whose home precedes the hole
// in wrap order, never an entry already at home.
TEST(FlatPageMap, EraseAcrossSeamKeepsHomeSlotEntriesPut) {
  constexpr std::size_t kCap = 16;
  const PageId at_last = keys_homing_at(kCap - 1, kCap, 2)[0];
  const PageId also_last = keys_homing_at(kCap - 1, kCap, 2)[1];
  const PageId at_zero = keys_homing_at(0, kCap, 1)[0];
  FlatPageMap<std::uint64_t> map;
  // Occupancy: slot 15 <- at_last, slot 0 <- also_last (displaced across the
  // seam), slot 1 <- at_zero (displaced by the intruder in its home).
  *map.try_emplace(at_last).first = 1;
  *map.try_emplace(also_last).first = 2;
  *map.try_emplace(at_zero).first = 3;
  // Erasing the seam-straddling entry must pull at_zero back toward its
  // home, not lose it.
  ASSERT_TRUE(map.erase(also_last));
  const std::uint64_t* last = map.find(at_last);
  const std::uint64_t* zero = map.find(at_zero);
  ASSERT_NE(last, nullptr);
  ASSERT_NE(zero, nullptr);
  EXPECT_EQ(*last, 1u);
  EXPECT_EQ(*zero, 3u);
}

// The table rehashes when an insert would push the load factor past 1/2.
// Hover around exactly that boundary with churn: entries must never be lost
// or duplicated on either side of the growth. The table grows from empty
// (reserve would size it sparser than the boundary).
TEST(FlatPageMap, ChurnAtExactlyHalfLoadFactor) {
  FlatPageMap<std::uint64_t> map;
  for (PageId k = 0; k < 8; ++k) *map.try_emplace(k).first = k;
  ASSERT_EQ(map.size(), 8u);
  // Capacity 16: 8 entries fit, the 9th insert rehashes.
  ASSERT_EQ(map.capacity(), 16u);
  // Replace one entry at the boundary several times: erase + reinsert keeps
  // size at capacity/2, never triggering growth, never losing entries.
  for (int round = 0; round < 32; ++round) {
    const PageId out = static_cast<PageId>(round % 8);
    ASSERT_TRUE(map.erase(out));
    *map.try_emplace(out).first = out;
    ASSERT_EQ(map.size(), 8u);
    for (PageId k = 0; k < 8; ++k) {
      const std::uint64_t* value = map.find(k);
      ASSERT_NE(value, nullptr);
      ASSERT_EQ(*value, k);
    }
  }
  // The insert crossing the boundary (9 > 16/2) grows the table and must
  // carry every entry across the rehash.
  *map.try_emplace(100).first = 100;
  ASSERT_EQ(map.size(), 9u);
  EXPECT_EQ(map.capacity(), 32u);
  for (PageId k = 0; k < 8; ++k) {
    const PageId* value = map.find(k);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, k);
  }
  PageId* const grown = map.find(100);
  ASSERT_NE(grown, nullptr);
  EXPECT_EQ(*grown, 100u);
}

TEST(FlatPageSet, MatchesUnorderedSetAndHoldsTheSentinel) {
  FlatPageSet set;
  std::unordered_set<PageId> reference;
  EXPECT_EQ(set.size(), 0u);
  Rng rng(3);
  for (int step = 0; step < 50000; ++step) {
    PageId key = rng.next_bool(0.5) ? rng.next_below(3000) : rng.next();
    if (step % 1000 == 0) key = kInvalidPage;
    ASSERT_EQ(set.insert(key), reference.insert(key).second) << key;
    ASSERT_EQ(set.size(), reference.size());
  }
  EXPECT_FALSE(set.insert(kInvalidPage));
}

}  // namespace
}  // namespace hymem::util
