// Virtual memory manager: the mechanism layer all hybrid-memory policies
// share. Policies *decide* (where to place a fault, what to migrate, what to
// evict); the VMM *executes* — page-table updates, frame management, DMA
// copies, disk traffic, device energy and NVM endurance accounting — so that
// every policy is costed identically.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "mem/device.hpp"
#include "mem/dma.hpp"
#include "mem/endurance.hpp"
#include "mem/technology.hpp"
#include "os/disk.hpp"
#include "os/frame_allocator.hpp"
#include "os/page_table.hpp"
#include "util/units.hpp"

namespace hymem::os {

/// Hybrid main-memory configuration.
struct VmmConfig {
  std::uint64_t dram_frames = 0;
  std::uint64_t nvm_frames = 0;
  std::uint64_t page_size = kDefaultPageSize;
  /// Device access width (the LLC line size); PageFactor =
  /// page_size / access_granularity.
  std::uint64_t access_granularity = 64;
  mem::MemTechnology dram = mem::dram_table4();
  mem::MemTechnology nvm = mem::pcm_table4();
  mem::DiskModel disk{};
  /// Page transfers: separate modules over DMA (the paper's assumption) or
  /// an integrated module with pipelined copies (its mentioned alternative).
  mem::TransferMode transfer_mode = mem::TransferMode::kDma;
  /// Optional Start-Gap wear leveling on the NVM module (extension).
  bool wear_leveling = false;
  std::uint64_t wear_gap_interval = 64;

  std::uint64_t total_frames() const { return dram_frames + nvm_frames; }
};

/// The mechanism layer. All operations return the latency they contribute to
/// the request being served (0 for asynchronous work, per the paper's model).
class Vmm {
 public:
  explicit Vmm(const VmmConfig& config);

  const VmmConfig& config() const { return config_; }

  // --- Queries -------------------------------------------------------------
  bool is_resident(PageId page) const { return table_.is_resident(page); }
  /// Tier holding the page, or nullopt when it is on disk.
  std::optional<Tier> tier_of(PageId page) const;
  bool has_free_frame(Tier tier) const;
  std::uint64_t frames(Tier tier) const;
  std::uint64_t resident(Tier tier) const { return table_.resident_in(tier); }

  // --- Operations ------------------------------------------------------------
  /// Serves a demand hit; the page must be resident. Returns the device
  /// latency. Marks the page dirty on writes and records NVM wear. This is
  /// the unbatched one-access reference: policies serve their hits through
  /// the block-replay calls below, so only tests call it (test_vmm,
  /// test_events and test_endurance_model pin its accounting).
  Nanoseconds access(PageId page, AccessType type);

  // --- Block-replay fast path -----------------------------------------------
  // The calls below decompose `access` for a policy's serve step (see
  // policy::HybridPolicy::serve_hit). A policy whose own per-tier indexes
  // already prove residency and tier (its queues and the page table track
  // the same pages by invariant — check_consistency and the stream-parity
  // and differential harnesses pin it) may skip the page-table probe on
  // reads (reads have no dirty or endurance side effects), and
  // policy::serve_block batches the demand counters per block.

  /// Page-table entry for the fast path, probed with the decode-time
  /// memoized hash (must equal util::hash_page_id(page)); nullptr when
  /// non-resident. The caller may mark_dirty() the entry but must route all
  /// other mutations through VMM operations. The pointer is invalidated by
  /// any residency change (fault_in, evict, migrate, swap).
  PageTableEntry* entry_hashed(PageId page, std::uint64_t hash) {
    return table_.find_hashed(page, hash);
  }

  /// The latency `access` charges a demand hit — a constant per
  /// (tier, type) — so a block loop can hoist all four values and defer the
  /// counter updates to one `record_demand_batch` per block. For a write
  /// the caller must also mark the entry dirty (or park the bit on its own
  /// node and touch_dirty the page before it leaves DRAM) and, on NVM, call
  /// note_nvm_demand_write.
  Nanoseconds demand_latency(Tier tier, AccessType type) const {
    return device(tier).demand_latency(type);
  }

  /// Folds a block's worth of demand-access counts into `tier`'s counters
  /// in one step. Integer addition commutes, so batching at block end leaves
  /// every counter identical to per-access recording.
  void record_demand_batch(Tier tier, std::uint64_t reads,
                           std::uint64_t writes) {
    device_mut(tier).record_demand_batch(reads, writes);
  }

  /// Endurance/wear accounting for one demand write into an NVM frame (the
  /// same bookkeeping `access` does internally for NVM writes).
  void note_nvm_demand_write(FrameId frame) {
    record_nvm_page_write(frame, mem::NvmWriteSource::kDemandWrite);
  }

  /// Brings a page in from disk into `tier` (a free frame must exist).
  /// Returns the visible latency: the disk delay only — the paper overlaps
  /// the memory fill writes with the disk transfer via DMA (Section II.A),
  /// though their energy is still charged (Eq. 2).
  Nanoseconds fault_in(PageId page, Tier tier);

  /// Migrates a resident page to the other module (a free frame must exist
  /// there). Returns the DMA latency: PageFactor * (read src + write dst).
  Nanoseconds migrate(PageId page, Tier destination);

  /// Exchanges a page in one module with a page in the other when neither
  /// module has a free frame (the common case once memory fills up: e.g. a
  /// promotion to a full DRAM paired with the demotion it forces). Charges
  /// one migration in each direction; returns the combined DMA latency.
  Nanoseconds swap(PageId a, PageId b);

  /// Marks a resident page dirty without charging a demand access. Used for
  /// write page faults: the written data arrives with the disk fill, so no
  /// separate memory access is billed, but the page now differs from disk.
  void touch_dirty(PageId page);

  /// Evicts a resident page to disk. Dirty pages count a disk page-out.
  /// Asynchronous: contributes no latency (Eq. 1 charges only TDisk on the
  /// fill side).
  void evict(PageId page);

  /// Structural self-audit: every residency count agrees with the frame
  /// allocators, no tier exceeds its capacity, and the per-source NVM
  /// endurance ledger equals what the device/DMA/disk counters imply
  /// (demand writes 1 cell-write each; fills and DRAM->NVM migrations
  /// PageFactor each). Throws std::logic_error on violation. O(1); call it
  /// between blocks, since policy::serve_block records a block's demand
  /// hits at its end (after every on_access, for one). Invariant checkers
  /// (src/check) call this alongside their policy-level checks.
  void check_consistency() const;

  /// Zeroes every accounting counter (device accesses, DMA transfers, disk
  /// traffic, NVM wear) without touching residency. Called at the end of a
  /// warmup pass so measurements reflect the steady state — the paper's
  /// setup explicitly minimizes cold-memory effects (Section V.A).
  void reset_accounting();

  // --- Accounting views ------------------------------------------------------
  const mem::MemoryDevice& device(Tier tier) const;
  const mem::DmaCounters& dma_counters() const { return dma_.counters(); }
  std::uint64_t page_factor() const { return dma_.accesses_per_page(); }
  const Disk& disk() const { return disk_; }
  const mem::EnduranceTracker& nvm_endurance() const { return endurance_; }
  const PageTable& page_table() const { return table_; }

 private:
  mem::MemoryDevice& device_mut(Tier tier) {
    return tier == Tier::kDram ? dram_ : nvm_;
  }
  FrameAllocator& allocator(Tier tier);
  void record_nvm_page_write(FrameId frame, mem::NvmWriteSource source);

  VmmConfig config_;
  PageTable table_;
  mem::MemoryDevice dram_;
  mem::MemoryDevice nvm_;
  FrameAllocator dram_alloc_;
  FrameAllocator nvm_alloc_;
  mem::DmaEngine dma_;
  Disk disk_;
  mem::EnduranceTracker endurance_;
  std::unique_ptr<mem::StartGapRemapper> remapper_;
};

}  // namespace hymem::os
