#include "model/events.hpp"

#include "util/check.hpp"

namespace hymem::model {

EventCounts EventCounts::read_counters(const os::Vmm& vmm) {
  EventCounts c;
  const auto& dram = vmm.device(Tier::kDram).counters();
  const auto& nvm = vmm.device(Tier::kNvm).counters();
  c.dram_read_hits = dram.demand_reads;
  c.dram_write_hits = dram.demand_writes;
  c.nvm_read_hits = nvm.demand_reads;
  c.nvm_write_hits = nvm.demand_writes;
  c.page_faults = vmm.disk().page_ins();
  const auto& dma = vmm.dma_counters();
  c.fills_to_dram = dma.disk_fills_to_dram;
  c.fills_to_nvm = dma.disk_fills_to_nvm;
  c.migrations_to_dram = dma.migrations_nvm_to_dram;
  c.migrations_to_nvm = dma.migrations_dram_to_nvm;
  c.dirty_evictions = vmm.disk().page_outs();
  c.page_factor = vmm.page_factor();
  return c;
}

EventCounts EventCounts::from_vmm(const os::Vmm& vmm, std::uint64_t accesses) {
  EventCounts c = read_counters(vmm);
  c.accesses = accesses;
  HYMEM_CHECK_MSG(c.fills_to_dram + c.fills_to_nvm == c.page_faults,
                  "every fault must fill exactly one module");
  HYMEM_CHECK_MSG(c.hits() + c.page_faults == c.accesses,
                  "hits + faults must cover all accesses");
  return c;
}

EventCounts EventCounts::operator-(const EventCounts& earlier) const {
  EventCounts d;
  d.accesses = accesses - earlier.accesses;
  d.dram_read_hits = dram_read_hits - earlier.dram_read_hits;
  d.dram_write_hits = dram_write_hits - earlier.dram_write_hits;
  d.nvm_read_hits = nvm_read_hits - earlier.nvm_read_hits;
  d.nvm_write_hits = nvm_write_hits - earlier.nvm_write_hits;
  d.page_faults = page_faults - earlier.page_faults;
  d.fills_to_dram = fills_to_dram - earlier.fills_to_dram;
  d.fills_to_nvm = fills_to_nvm - earlier.fills_to_nvm;
  d.migrations_to_dram = migrations_to_dram - earlier.migrations_to_dram;
  d.migrations_to_nvm = migrations_to_nvm - earlier.migrations_to_nvm;
  d.dirty_evictions = dirty_evictions - earlier.dirty_evictions;
  d.page_factor = page_factor;
  return d;
}

EventCounts& EventCounts::operator+=(const EventCounts& more) {
  accesses += more.accesses;
  dram_read_hits += more.dram_read_hits;
  dram_write_hits += more.dram_write_hits;
  nvm_read_hits += more.nvm_read_hits;
  nvm_write_hits += more.nvm_write_hits;
  page_faults += more.page_faults;
  fills_to_dram += more.fills_to_dram;
  fills_to_nvm += more.fills_to_nvm;
  migrations_to_dram += more.migrations_to_dram;
  migrations_to_nvm += more.migrations_to_nvm;
  dirty_evictions += more.dirty_evictions;
  return *this;
}

}  // namespace hymem::model
