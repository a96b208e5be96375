// Tunables of the sampled-hotness subsystem.
//
// Three of these are the frontier axes bench_sampled_frontier sweeps:
// `sample_period` (how much of the access stream the OS actually sees),
// `ring_capacity` (how much staging memory the sampling channel gets), and
// `migration_budget` (how much migration bandwidth the migrator may
// spend). The rest shape the hotness estimator itself, mirroring the
// knobs of HeMem-style PEBS managers (hot threshold, periodic cooling).
#pragma once

#include <cstdint>

namespace hymem::sample {

/// Configuration of SampledLruPolicy and its tap/migrator.
struct SampleConfig {
  /// Every Nth completed access is sampled (PEBS-style period). 1 = observe
  /// everything (the omniscient limit, useful for differential checks).
  std::uint64_t sample_period = 16;

  /// Capacity of each candidate ring (hot candidates, cold candidates),
  /// rounded up to a power of two. A full ring drops the candidate and counts it.
  std::uint64_t ring_capacity = 1024;

  /// A page whose sampled-access counter reaches this value while
  /// NVM-resident becomes a promotion candidate (pushed on the upward
  /// crossing only, so a steady-hot page enters the ring once per heat-up).
  std::uint64_t hot_threshold = 4;

  /// After a cooling pass, a DRAM-resident page whose counter fell below
  /// this value becomes a demotion candidate.
  std::uint64_t cold_threshold = 1;

  /// Every this-many samples, every hotness counter is halved (HeMem's
  /// periodic cooling) and zeroed entries are pruned from the table.
  std::uint64_t cooling_period = 512;

  /// The migrator drains the rings when the policy's access count crosses
  /// a multiple of this period (virtual time).
  std::uint64_t drain_period = 1024;

  /// Max candidates applied per drain period (a promotion that forces a
  /// swap-demotion counts once; the copies are tracked separately).
  /// 0 = unlimited.
  std::uint64_t migration_budget = 64;
};

}  // namespace hymem::sample
