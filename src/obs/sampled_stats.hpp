// Counters of the sampled-hotness subsystem (src/sample), published through
// an obs-level interface so the EpochSampler can chart them without obs
// depending on the sample library (dependencies flow sample -> obs).
//
// All totals are cumulative over the run; the EpochSampler differences
// consecutive snapshots into per-epoch deltas the same way it does for the
// VMM event counts. `backlog` and the ring high-water marks are
// instantaneous / monotone gauges, exported as-is.
#pragma once

#include <cstdint>

namespace hymem::obs {

/// One snapshot of the sampled subsystem's counters.
struct SampledStats {
  // Tap side.
  std::uint64_t samples = 0;        ///< Accesses actually sampled (every Nth).
  std::uint64_t sample_drops = 0;   ///< Candidates lost to a full ring.
  std::uint64_t coolings = 0;       ///< Global counter-halving passes.
  std::uint64_t hot_ring_hwm = 0;   ///< Hot ring occupancy high water.
  std::uint64_t cold_ring_hwm = 0;  ///< Cold ring occupancy high water.

  // Migrator side.
  std::uint64_t promotions = 0;  ///< Async NVM->DRAM migrations applied.
  std::uint64_t demotions = 0;   ///< DRAM->NVM (cooling + swap-forced).
  std::uint64_t stale_candidates = 0;  ///< Ring entries invalid at drain time.
  std::uint64_t migration_copies = 0;  ///< Page copies performed (swap = 2).
  std::uint64_t drains = 0;            ///< Drain passes executed.
  std::uint64_t backlog = 0;  ///< Candidates still queued (instantaneous).
};

/// Implemented by policies that carry a sampled-hotness subsystem
/// (sample::SampledLruPolicy). The EpochSampler snapshots this at every
/// epoch boundary, between blocks, so the snapshot may be taken at any
/// access boundary.
class SampledStatsSource {
 public:
  virtual ~SampledStatsSource() = default;
  virtual SampledStats sampled_stats() const = 0;
};

}  // namespace hymem::obs
