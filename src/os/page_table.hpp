// Page table: virtual page -> {module, frame, dirty}.
//
// This is the OS-level structure the paper's scheme manipulates: migrations
// are page-table remappings plus DMA copies, invisible to the application.
#pragma once

#include <cstdint>
#include <optional>

#include "util/flat_page_map.hpp"
#include "util/types.hpp"

namespace hymem::os {

/// One mapping. Pages not present in the table live on disk.
///
/// Packed into a single word so a map slot (page + entry) is 16 bytes and a
/// cache line covers four probe slots — the page table is probed on every
/// simulated access, so its footprint and line utilisation dominate the
/// replay loop's cache behaviour.
class PageTableEntry {
 public:
  PageTableEntry() = default;
  PageTableEntry(Tier tier, FrameId frame, bool dirty)
      : bits_((frame << kFrameShift) |
              (tier == Tier::kNvm ? kNvmBit : 0u) | (dirty ? kDirtyBit : 0u)) {}

  Tier tier() const { return (bits_ & kNvmBit) != 0 ? Tier::kNvm : Tier::kDram; }
  FrameId frame() const { return bits_ >> kFrameShift; }
  bool dirty() const { return (bits_ & kDirtyBit) != 0; }

  void mark_dirty() { bits_ |= kDirtyBit; }
  /// Re-points the entry at a new tier/frame, keeping the dirty bit.
  void retarget(Tier tier, FrameId frame) {
    bits_ = (frame << kFrameShift) | (tier == Tier::kNvm ? kNvmBit : 0u) |
            (bits_ & kDirtyBit);
  }

 private:
  static constexpr std::uint64_t kNvmBit = 1;
  static constexpr std::uint64_t kDirtyBit = 2;
  static constexpr int kFrameShift = 2;

  std::uint64_t bits_ = 0;
};

/// Hash-map page table. Only *resident* pages have entries; a miss means the
/// page is on disk (or never touched — the distinction is the caller's).
class PageTable {
 public:
  /// Pre-sizes the table for `frames` resident pages (residency is bounded
  /// by the frame count, so sizing here removes all rehashing at runtime).
  void reserve(std::uint64_t frames);

  /// Entry for a resident page, or nullopt.
  std::optional<PageTableEntry> lookup(PageId page) const;

  /// Pointer access for in-place updates; nullptr when not resident.
  PageTableEntry* find(PageId page);
  const PageTableEntry* find(PageId page) const;

  /// `find` with the caller-memoized key hash (block-replay fast path; see
  /// FlatPageMap::find_hashed). `hash` must equal hash_page_id(page).
  PageTableEntry* find_hashed(PageId page, std::uint64_t hash) {
    return entries_.find_hashed(page, hash);
  }
  const PageTableEntry* find_hashed(PageId page, std::uint64_t hash) const {
    return entries_.find_hashed(page, hash);
  }

  /// Adds a mapping; the page must not be resident.
  void map(PageId page, Tier tier, FrameId frame, bool dirty = false);

  /// Removes a mapping; the page must be resident. Returns the old entry.
  PageTableEntry unmap(PageId page);

  /// Re-points a resident page at a new tier/frame (migration), keeping the
  /// dirty bit.
  void remap(PageId page, Tier tier, FrameId frame);

  bool is_resident(PageId page) const { return entries_.contains(page); }
  std::uint64_t resident_pages() const { return entries_.size(); }
  std::uint64_t resident_in(Tier tier) const {
    return tier == Tier::kDram ? dram_count_ : nvm_count_;
  }

 private:
  util::FlatPageMap<PageTableEntry> entries_;
  std::uint64_t dram_count_ = 0;
  std::uint64_t nvm_count_ = 0;
};

}  // namespace hymem::os
