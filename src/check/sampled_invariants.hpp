// Structural invariant checking for the sampled-hotness policy
// (sample::SampledLruPolicy) — the src/check counterpart of invariants.hpp
// for the deferred-migration subsystem.
//
// check_invariants() asserts, after any completed access boundary:
//
//   * no page is tracked by both tier queues, and each queue exactly covers
//     the pages the VMM holds resident in the matching tier (so a page is
//     never resident in both tiers);
//   * ring occupancy never exceeds ring capacity (the candidate rings
//     reject pushes when full — drops are counted, not queued);
//   * the most recent drain applied at most migration_budget
//     candidates (the rate bound is exact, not amortized);
//   * the VMM's residency/allocator/endurance ledgers are self-consistent
//     (Vmm::check_consistency).
//
// run_sampled_fuzz_case() derives a scenario from a seed (memory shape and
// trace from the shared fuzzer, sampling tunables from the same splitmix64
// stream), replays it with check_invariants after every access, and then
// replays it a second time from scratch to assert the virtual-time migrator
// is fully deterministic (identical final stats and event counts).
#pragma once

#include <cstdint>
#include <string>

#include "obs/sampled_stats.hpp"
#include "sample/sampled_policy.hpp"

namespace hymem::check {

/// Validates all structural invariants of `policy` and its VMM. Throws
/// std::logic_error describing the first violation.
void check_invariants(const sample::SampledLruPolicy& policy);

/// What one sampled fuzz replay produced (for test assertions).
struct SampledFuzzOutcome {
  std::uint64_t accesses = 0;
  obs::SampledStats stats;
  std::uint64_t dram_resident = 0;
  std::uint64_t nvm_resident = 0;
  /// One-line reproduction header: seed, memory shape, sampling tunables.
  std::string describe;
};

/// Replays the seed-derived scenario with per-access invariant auditing,
/// then replays it again from scratch and throws std::logic_error if the
/// two runs disagree (determinism oracle). Returns the first run's outcome.
SampledFuzzOutcome run_sampled_fuzz_case(std::uint64_t seed,
                                         std::size_t accesses);

}  // namespace hymem::check
