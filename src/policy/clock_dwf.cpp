#include "policy/clock_dwf.hpp"

#include "util/check.hpp"

namespace hymem::policy {

ClockDwfPolicy::ClockDwfPolicy(os::Vmm& vmm)
    : HybridPolicy(vmm),
      dram_(static_cast<std::size_t>(vmm.frames(Tier::kDram))),
      nvm_(static_cast<std::size_t>(vmm.frames(Tier::kNvm))) {
  HYMEM_CHECK_MSG(vmm.frames(Tier::kDram) > 0 && vmm.frames(Tier::kNvm) > 0,
                  "CLOCK-DWF needs both modules populated");
}

void ClockDwfPolicy::leave_dram(PageId victim) {
  if (dram_.erase(victim)) vmm_.touch_dirty(victim);
}

void ClockDwfPolicy::evict_nvm_victim() {
  const auto victim = nvm_.select_victim();
  HYMEM_CHECK_MSG(victim.has_value(), "NVM clock empty while full");
  nvm_.erase(*victim);
  vmm_.evict(*victim);
}

Nanoseconds ClockDwfPolicy::demote_dram_victim() {
  const auto victim = dram_.select_victim();
  HYMEM_CHECK_MSG(victim.has_value(), "DRAM clock empty while full");
  if (!vmm_.has_free_frame(Tier::kNvm)) evict_nvm_victim();
  leave_dram(*victim);
  const Nanoseconds latency = vmm_.migrate(*victim, Tier::kNvm);
  nvm_.insert(*victim, AccessType::kRead);
  return latency;
}

Nanoseconds ClockDwfPolicy::promote_and_write(PageId page) {
  Nanoseconds latency = 0;
  if (vmm_.has_free_frame(Tier::kDram)) {
    nvm_.erase(page);
    latency += vmm_.migrate(page, Tier::kDram);
  } else {
    const auto victim = dram_.select_victim();
    HYMEM_CHECK_MSG(victim.has_value(), "DRAM clock empty while full");
    // Full memory: the promotion drags the DRAM victim down with it
    // (one migration each way — the non-beneficial pattern the paper
    // dissects in Section III).
    leave_dram(*victim);
    nvm_.erase(page);
    latency += vmm_.swap(page, *victim);
    nvm_.insert(*victim, AccessType::kRead);
  }
  dram_.insert(page, AccessType::kWrite);
  dram_.on_hit(page, AccessType::kWrite);  // the triggering write sets the bit
  vmm_.touch_dirty(page);
  return latency;
}

// Page fault. Writes (and any fault while DRAM has spare frames) fill
// DRAM; read faults fill NVM.
Nanoseconds ClockDwfPolicy::fault_in_access(PageId page, AccessType type) {
  Nanoseconds latency = 0;
  const bool to_dram =
      type == AccessType::kWrite || vmm_.has_free_frame(Tier::kDram);
  if (to_dram) {
    if (!vmm_.has_free_frame(Tier::kDram)) latency += demote_dram_victim();
    latency += vmm_.fault_in(page, Tier::kDram);
    dram_.insert(page, type);
    if (type == AccessType::kWrite) {
      dram_.on_hit(page, type);
      vmm_.touch_dirty(page);
    }
  } else {
    if (!vmm_.has_free_frame(Tier::kNvm)) evict_nvm_victim();
    latency += vmm_.fault_in(page, Tier::kNvm);
    nvm_.insert(page, type);
  }
  return latency;
}

Nanoseconds ClockDwfPolicy::on_block(const AccessBlock& block) {
  return serve_block(*this, block);
}

void ClockDwfPolicy::publish_dirty() {
  dram_.for_each_dirty([this](PageId page) { vmm_.touch_dirty(page); });
}

}  // namespace hymem::policy
