#include "os/vmm.hpp"

#include "util/check.hpp"

namespace hymem::os {

Vmm::Vmm(const VmmConfig& config)
    : config_(config),
      dram_(Tier::kDram, config.dram, config.dram_frames, config.page_size),
      nvm_(Tier::kNvm, config.nvm, config.nvm_frames, config.page_size),
      dram_alloc_(config.dram_frames),
      nvm_alloc_(config.nvm_frames),
      dma_(config.page_size, config.access_granularity, config.transfer_mode),
      disk_(config.disk),
      endurance_(config.nvm_frames > 0
                     ? config.nvm_frames + (config.wear_leveling ? 1 : 0)
                     : 1,
                 config.nvm.endurance_cycles) {
  HYMEM_CHECK_MSG(config.total_frames() > 0, "memory must have capacity");
  table_.reserve(config.total_frames());
  if (config.wear_leveling && config.nvm_frames > 0) {
    remapper_ = std::make_unique<mem::StartGapRemapper>(
        config.nvm_frames, config.wear_gap_interval);
  }
}

std::optional<Tier> Vmm::tier_of(PageId page) const {
  const auto entry = table_.lookup(page);
  if (!entry) return std::nullopt;
  return entry->tier();
}

bool Vmm::has_free_frame(Tier tier) const {
  return tier == Tier::kDram ? !dram_alloc_.full() : !nvm_alloc_.full();
}

std::uint64_t Vmm::frames(Tier tier) const {
  return tier == Tier::kDram ? config_.dram_frames : config_.nvm_frames;
}

const mem::MemoryDevice& Vmm::device(Tier tier) const {
  return tier == Tier::kDram ? dram_ : nvm_;
}

FrameAllocator& Vmm::allocator(Tier tier) {
  return tier == Tier::kDram ? dram_alloc_ : nvm_alloc_;
}

void Vmm::record_nvm_page_write(FrameId frame, mem::NvmWriteSource source) {
  const std::uint64_t cells =
      source == mem::NvmWriteSource::kDemandWrite ? 1 : dma_.accesses_per_page();
  FrameId slot = frame;
  if (remapper_) {
    slot = remapper_->physical(frame);
    remapper_->on_write();
  }
  endurance_.record(slot, source, cells);
}

Nanoseconds Vmm::access(PageId page, AccessType type) {
  PageTableEntry* entry = table_.find(page);
  HYMEM_CHECK_MSG(entry != nullptr, "demand access to non-resident page");
  if (type == AccessType::kWrite) {
    entry->mark_dirty();
    if (entry->tier() == Tier::kNvm) {
      record_nvm_page_write(entry->frame(), mem::NvmWriteSource::kDemandWrite);
    }
  }
  return device_mut(entry->tier()).record_demand(type);
}

Nanoseconds Vmm::fault_in(PageId page, Tier tier) {
  HYMEM_CHECK_MSG(!table_.is_resident(page), "fault_in of resident page");
  const auto frame = allocator(tier).allocate();
  HYMEM_CHECK_MSG(frame.has_value(), "fault_in with no free frame");
  table_.map(page, tier, *frame, /*dirty=*/false);
  dma_.fill_from_disk(device_mut(tier));
  if (tier == Tier::kNvm) {
    record_nvm_page_write(*frame, mem::NvmWriteSource::kPageFault);
  }
  return disk_.read_page();
}

Nanoseconds Vmm::migrate(PageId page, Tier destination) {
  PageTableEntry* entry = table_.find(page);
  HYMEM_CHECK_MSG(entry != nullptr, "migrate of non-resident page");
  HYMEM_CHECK_MSG(entry->tier() != destination, "migrate to current tier");
  const auto frame = allocator(destination).allocate();
  HYMEM_CHECK_MSG(frame.has_value(), "migrate with no free destination frame");
  const Tier source = entry->tier();
  allocator(source).release(entry->frame());
  const Nanoseconds latency =
      dma_.migrate(device_mut(source), device_mut(destination));
  if (destination == Tier::kNvm) {
    record_nvm_page_write(*frame, mem::NvmWriteSource::kMigration);
  }
  table_.remap(page, destination, *frame);
  return latency;
}

void Vmm::check_consistency() const {
  // Residency bookkeeping: the page table's per-tier counts must equal the
  // frames handed out by the allocators, and never exceed capacity.
  HYMEM_CHECK_MSG(table_.resident_in(Tier::kDram) == dram_alloc_.allocated(),
                  "DRAM residency disagrees with the frame allocator");
  HYMEM_CHECK_MSG(table_.resident_in(Tier::kNvm) == nvm_alloc_.allocated(),
                  "NVM residency disagrees with the frame allocator");
  HYMEM_CHECK_MSG(table_.resident_in(Tier::kDram) <= config_.dram_frames,
                  "more DRAM-resident pages than DRAM frames");
  HYMEM_CHECK_MSG(table_.resident_in(Tier::kNvm) <= config_.nvm_frames,
                  "more NVM-resident pages than NVM frames");
  HYMEM_CHECK_MSG(table_.resident_pages() == table_.resident_in(Tier::kDram) +
                                                 table_.resident_in(Tier::kNvm),
                  "per-tier residency counts do not sum to the table size");
  // Every page fault filled exactly one module.
  const mem::DmaCounters& dma = dma_.counters();
  HYMEM_CHECK_MSG(
      dma.disk_fills_to_dram + dma.disk_fills_to_nvm == disk_.page_ins(),
      "disk page-ins disagree with the DMA fill counters");
  // NVM physical-write ledger (the paper's endurance accounting): demand
  // writes contribute one cell-write, fault fills and DRAM->NVM migrations
  // PageFactor each. The endurance tracker must agree with the independent
  // device/DMA/disk counters it mirrors.
  const std::uint64_t pf = dma_.accesses_per_page();
  HYMEM_CHECK_MSG(
      endurance_.writes_from(mem::NvmWriteSource::kDemandWrite) ==
          nvm_.counters().demand_writes,
      "endurance demand-write ledger disagrees with the NVM device counter");
  HYMEM_CHECK_MSG(
      endurance_.writes_from(mem::NvmWriteSource::kPageFault) ==
          pf * dma.disk_fills_to_nvm,
      "endurance fault-fill ledger disagrees with the DMA fill counter");
  HYMEM_CHECK_MSG(
      endurance_.writes_from(mem::NvmWriteSource::kMigration) ==
          pf * dma.migrations_dram_to_nvm,
      "endurance migration ledger disagrees with the DMA migration counter");
  HYMEM_CHECK_MSG(
      endurance_.total_writes() ==
          nvm_.counters().demand_writes +
              pf * (dma.disk_fills_to_nvm + dma.migrations_dram_to_nvm),
      "NVM physical writes != demand + PageFactor*(fills + demotions)");
}

void Vmm::reset_accounting() {
  dram_.reset_counters();
  nvm_.reset_counters();
  dma_.reset_counters();
  disk_.reset_counters();
  endurance_.reset();
}

Nanoseconds Vmm::swap(PageId a, PageId b) {
  PageTableEntry* ea = table_.find(a);
  PageTableEntry* eb = table_.find(b);
  HYMEM_CHECK_MSG(ea != nullptr && eb != nullptr, "swap of non-resident page");
  HYMEM_CHECK_MSG(ea->tier() != eb->tier(), "swap must cross modules");
  // One DMA copy in each direction (a real implementation stages through a
  // bounce buffer; the cost model is identical).
  Nanoseconds latency = dma_.migrate(device_mut(ea->tier()), device_mut(eb->tier()));
  latency += dma_.migrate(device_mut(eb->tier()), device_mut(ea->tier()));
  const Tier tier_a = ea->tier();
  const FrameId frame_a = ea->frame();
  const Tier tier_b = eb->tier();
  const FrameId frame_b = eb->frame();
  table_.remap(a, tier_b, frame_b);
  table_.remap(b, tier_a, frame_a);
  const PageTableEntry* into_nvm = tier_b == Tier::kNvm ? table_.find(a) : table_.find(b);
  record_nvm_page_write(into_nvm->frame(), mem::NvmWriteSource::kMigration);
  return latency;
}

void Vmm::touch_dirty(PageId page) {
  PageTableEntry* entry = table_.find(page);
  HYMEM_CHECK_MSG(entry != nullptr, "touch_dirty of non-resident page");
  entry->mark_dirty();
}

void Vmm::evict(PageId page) {
  const PageTableEntry entry = table_.unmap(page);
  allocator(entry.tier()).release(entry.frame());
  if (entry.dirty()) disk_.write_page();
}

}  // namespace hymem::os
