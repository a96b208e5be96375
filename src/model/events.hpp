// Event counts: the bridge between the simulator and the analytic models.
//
// Every probability in the paper's Table I is a ratio of these counts; the
// AMAT (Eq. 1) and APPR (Eq. 2) models consume them directly.
#pragma once

#include <cstdint>

#include "os/vmm.hpp"

namespace hymem::model {

/// Counts of every costed event over one simulation run.
struct EventCounts {
  std::uint64_t accesses = 0;  ///< Total CPU requests served.

  // Demand hits per module and type (a faulted request is a miss, not a hit).
  std::uint64_t dram_read_hits = 0;
  std::uint64_t dram_write_hits = 0;
  std::uint64_t nvm_read_hits = 0;
  std::uint64_t nvm_write_hits = 0;

  // Page faults and their fill destination.
  std::uint64_t page_faults = 0;
  std::uint64_t fills_to_dram = 0;
  std::uint64_t fills_to_nvm = 0;

  // Migrations between the modules.
  std::uint64_t migrations_to_dram = 0;  ///< NVM -> DRAM promotions.
  std::uint64_t migrations_to_nvm = 0;   ///< DRAM -> NVM demotions.

  // Evictions to disk (reporting only; uncosted per the paper's models).
  std::uint64_t dirty_evictions = 0;

  /// PageFactor: device accesses per page move.
  std::uint64_t page_factor = 0;

  std::uint64_t dram_hits() const { return dram_read_hits + dram_write_hits; }
  std::uint64_t nvm_hits() const { return nvm_read_hits + nvm_write_hits; }
  std::uint64_t hits() const { return dram_hits() + nvm_hits(); }
  std::uint64_t migrations() const {
    return migrations_to_dram + migrations_to_nvm;
  }

  /// The VMM's cumulative counters: every field but `accesses`, which the
  /// VMM does not count (left 0).
  static EventCounts read_counters(const os::Vmm& vmm);

  /// Snapshot from a VMM after a run of `accesses` requests. Validates that
  /// hits + faults account for every request.
  static EventCounts from_vmm(const os::Vmm& vmm, std::uint64_t accesses);

  /// Field-by-field difference: the events between two cumulative
  /// readings. page_factor is a run constant, so it keeps the left
  /// operand's value.
  EventCounts operator-(const EventCounts& earlier) const;
  /// Field-by-field accumulation; page_factor keeps this side's value.
  EventCounts& operator+=(const EventCounts& more);
};

}  // namespace hymem::model
