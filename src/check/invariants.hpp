// Structural invariant checking for the two-LRU migration scheme.
//
// check_invariants() asserts, in one pass over the policy's queues and the
// VMM's ledgers, everything that must hold after any completed access:
//
//   * no page is resident in both queues;
//   * each queue's size is within its capacity, and the queues exactly
//     cover the pages the VMM holds resident in the matching tier;
//   * windowed-counter membership matches the configured readperc/writeperc
//     prefixes (CountedLruQueue::check_invariants);
//   * the VMM's residency/allocator/endurance ledgers are self-consistent —
//     in particular, NVM physical writes equal demand write hits plus
//     PageFactor * (fault fills + DRAM->NVM demotions)
//     (Vmm::check_consistency).
//
// Violations throw std::logic_error (via HYMEM_CHECK) so tests can assert
// on them and fuzz harnesses can shrink the offending trace. The checker is
// O(resident pages); the differential harness calls it after every access.
#pragma once

#include "core/migration_scheme.hpp"

namespace hymem::check {

/// Validates all structural invariants of `policy` and its VMM. Throws
/// std::logic_error describing the first violation.
void check_invariants(const core::TwoLruMigrationPolicy& policy);

}  // namespace hymem::check
