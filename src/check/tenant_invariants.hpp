// Structural invariant checking for the multi-tenant serving layer
// (tenant::TenantGroup) — the src/check counterpart of sampled_invariants
// for the shared-budget arbitration machinery.
//
// check_invariants() asserts, after any completed operation boundary
// (serve, arrive, depart):
//
//   * budget conservation: the per-shard DRAM/NVM slices sum to exactly the
//     group's shared budget whenever any tenant is active (and to zero when
//     none is), and no shard's residency exceeds its slice;
//   * namespace coverage: summing each tenant's resident pages (probed
//     through its own namespaced IDs) reproduces the shards' residency
//     counts exactly — so no page is resident under two namespaces and no
//     resident page lacks an owner;
//   * teardown: departed tenants hold zero resident pages;
//   * the mechanism-layer ledgers of every live shard are self-consistent
//     (Vmm::check_consistency).
//
// run_tenant_fuzz_case() derives a churn scenario from a seed
// (make_tenant_fuzz_case), replays it with check_invariants after every
// operation, replays it a second time from scratch to assert determinism
// (identical totals, per-tenant ledgers and reconfiguration counts), and
// asserts attribution conservation: the per-tenant event ledgers sum to the
// group totals field by field.
#pragma once

#include <cstdint>
#include <string>

#include "model/events.hpp"
#include "tenant/tenant_group.hpp"

namespace hymem::check {

/// Validates all structural invariants of `group`. Throws std::logic_error
/// describing the first violation. Callable mid-run and after finish().
void check_invariants(const tenant::TenantGroup& group);

/// What one tenant fuzz replay produced (for test assertions).
struct TenantFuzzOutcome {
  std::uint64_t accesses = 0;
  std::uint32_t tenants = 0;  ///< Tenants that ever arrived.
  std::uint64_t reconfigurations = 0;
  std::uint64_t reconfig_evictions = 0;
  model::EventCounts totals;
  /// One-line reproduction header: seed, group shape, schedule shape.
  std::string describe;
};

/// Replays the seed-derived churn scenario with per-operation invariant
/// auditing, then replays it again from scratch and throws std::logic_error
/// if the two runs disagree (determinism oracle) or if the per-tenant
/// ledgers fail to sum to the group totals (attribution conservation).
/// Returns the first run's outcome.
TenantFuzzOutcome run_tenant_fuzz_case(std::uint64_t seed,
                                       std::size_t accesses);

}  // namespace hymem::check
