// Multi-tenant serving layer: N independent address spaces sharing one
// physical DRAM/NVM budget.
//
// Modeled on HybridMemoryGroup (hmem-sigsegv): a group owns K policy
// instances ("shards"), each an independent VMM + hybrid policy over a
// slice of the shared budget; tenants are hash-assigned to shards and their
// page IDs are namespaced (tenant bits above the page bits) so address
// spaces can never collide. Arbitration of the shared budget is pluggable:
//
//   * kStaticEqual        — every active tenant owns an equal share; a
//     shard's slice is the sum of its tenants' shares. Recomputed only when
//     the active set changes (admission control repartitions).
//   * kDemandProportional — shares follow each tenant's access counts over
//     the last rebalance window (plus one, so idle tenants keep a floor),
//     recomputed every `rebalance_period` accesses and at churn events.
//   * kSharedQueue        — free-for-all contrast mode: one policy instance
//     owns the whole budget and every tenant competes inside its queues
//     (no isolation at all; the scan antagonist's best case).
//
// Repartitioning is modeled as a partition flush: a shard whose slice
// changed evicts its residents (dirty page-outs charged to the owning
// tenants) and restarts cold, so rebalancing pays an explicit, accounted
// cost rather than a free resize. This is an upper bound on what a real
// repartition pays and is what makes the static/demand comparison honest.
//
// Everything is deterministic: one serving order in, one result out — no
// threads, no wall clock — so byte-identical invariants (budget
// conservation, 1-tenant parity with the plain engine, double-replay
// equality) can gate it in CI.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/migration_config.hpp"
#include "mem/technology.hpp"
#include "model/events.hpp"
#include "model/model_params.hpp"
#include "model/perf_model.hpp"
#include "os/vmm.hpp"
#include "policy/hybrid_policy.hpp"
#include "synth/tenant_stream.hpp"
#include "tenant/fairness.hpp"
#include "util/flat_page_map.hpp"

namespace hymem::tenant {

/// How the shared physical budget is arbitrated across tenants.
enum class BudgetMode : std::uint8_t {
  kStaticEqual = 0,
  kDemandProportional = 1,
  kSharedQueue = 2,
};

std::string to_string(BudgetMode mode);
/// Parses "static" / "demand" / "shared"; throws std::invalid_argument.
BudgetMode parse_budget_mode(const std::string& name);

// --- Page-ID namespacing -----------------------------------------------------
// Tenant IDs occupy the bits above the per-tenant page space, so namespaced
// IDs are unique across address spaces by construction and tenant 0 maps to
// the identity (the 1-tenant parity canary depends on that).

inline constexpr unsigned kTenantPageBits = 40;
inline constexpr PageId kTenantPageMask = (PageId{1} << kTenantPageBits) - 1;
inline constexpr std::uint32_t kMaxTenants =
    (std::uint32_t{1} << 20);  ///< 64 - 40 = 24 bits, capped well below.

/// Namespaces a tenant-local page ID; throws std::invalid_argument when the
/// local page overflows the per-tenant page space.
PageId namespaced_page(std::uint32_t tenant, PageId local);
std::uint32_t tenant_of_page(PageId namespaced);
PageId local_page(PageId namespaced);

// --- Configuration -----------------------------------------------------------

struct TenantGroupConfig {
  std::string policy = "two-lru";
  BudgetMode budget_mode = BudgetMode::kStaticEqual;
  /// Policy instances the tenants are hash-assigned across. kSharedQueue
  /// always runs one instance regardless of this value.
  unsigned shards = 1;
  std::uint64_t dram_frames = 0;  ///< Shared physical budget.
  std::uint64_t nvm_frames = 0;
  std::uint64_t page_size = kDefaultPageSize;
  std::uint64_t access_granularity = 64;
  mem::MemTechnology dram = mem::dram_table4();
  mem::MemTechnology nvm = mem::pcm_table4();
  mem::DiskModel disk{};
  mem::TransferMode transfer_mode = mem::TransferMode::kDma;
  bool wear_leveling = false;
  core::MigrationConfig migration{};
  /// kDemandProportional: accesses between demand rebalances (0 disables
  /// the periodic trigger; churn events still rebalance).
  std::uint64_t rebalance_period = 0;
  /// Tenant timeline epoch length in accesses (0 = no timeline).
  std::uint64_t epoch_accesses = 0;
  /// ROI wall time for Eq. 3 static proration of the aggregate result.
  double duration_s = 1.0;
};

// --- Results -----------------------------------------------------------------

/// Everything attributed to one tenant over the run. Attribution is by
/// triggering access: the migrations, faults and evictions an access (or a
/// departure/repartition flush) causes are charged to that tenant.
struct TenantCounters {
  std::uint32_t tenant = 0;
  model::EventCounts counts;
  Nanoseconds visible_latency_ns = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  /// Residents evicted out from under this tenant by repartition flushes.
  std::uint64_t reconfig_evictions = 0;
};

/// One epoch of the tenant timeline.
struct TenantEpochRecord {
  std::uint64_t epoch = 0;
  std::uint64_t end_access = 0;
  std::uint32_t active_tenants = 0;
  std::uint64_t arrivals = 0;    ///< Delta within the epoch.
  std::uint64_t departures = 0;  ///< Delta within the epoch.
  model::EventCounts delta;      ///< Aggregate events within the epoch.
  double amat_total_ns = 0.0;    ///< Eq. 1 over the epoch's delta counts.
  FairnessSummary fairness;      ///< Over per-tenant epoch AMATs.
  std::uint64_t dram_resident = 0;  ///< Summed over shards at the boundary.
  std::uint64_t nvm_resident = 0;
  std::uint64_t reconfigurations = 0;  ///< Cumulative at the boundary.
};

struct TenantGroupResult {
  std::string policy;
  std::string workload;
  std::uint64_t accesses = 0;
  double duration_s = 0.0;
  model::EventCounts totals;
  model::ModelParams params;  ///< Budget-level bytes, config technologies.
  Nanoseconds visible_latency_ns = 0;
  /// Per-tenant attribution, ordered by tenant id (tenants that ever
  /// arrived; sums to `totals` exactly).
  std::vector<TenantCounters> tenants;
  std::uint64_t reconfigurations = 0;
  std::uint64_t reconfig_evictions = 0;
  FairnessSummary fairness;  ///< Over full-run per-tenant AMATs.
  std::vector<TenantEpochRecord> timeline;

  model::AmatBreakdown amat() const { return model::amat(totals, params); }
  /// Full-run AMAT of one entry of `tenants` (0 when it served nothing).
  double tenant_amat_ns(std::size_t index) const;
};

// --- The group ---------------------------------------------------------------

class TenantGroup {
 public:
  /// Validates the configuration (policy must be shardable, budgets must
  /// admit the shard count) and starts with zero tenants admitted.
  explicit TenantGroup(const TenantGroupConfig& config);
  ~TenantGroup();
  TenantGroup(const TenantGroup&) = delete;
  TenantGroup& operator=(const TenantGroup&) = delete;

  const TenantGroupConfig& config() const { return config_; }

  /// Replays a whole stream (arrivals, accesses, departures in order) and
  /// finalizes. One-shot: a group that already ran throws std::logic_error.
  TenantGroupResult run(const synth::TenantStream& stream);

  // Incremental serving (what run() drives; exposed for the invariant
  // fuzzer and custom harnesses).
  /// Applies one stream op: arrive, depart or serve.
  void apply(const synth::TenantOp& op);
  void arrive(std::uint32_t tenant);
  void depart(std::uint32_t tenant);
  /// Serves one access for `tenant` (auto-admits inactive tenants) and
  /// returns the visible latency.
  Nanoseconds serve(std::uint32_t tenant, const trace::MemAccess& access);
  /// Finalizes: flushes the open epoch and builds the result.
  TenantGroupResult finish(std::string workload_name = "tenants");

  // --- Introspection (invariant checks, metrics, tests) ---------------------
  unsigned shard_count() const;
  unsigned shard_of(std::uint32_t tenant) const;
  /// Null when the shard currently has no tenants (and owns no frames).
  const os::Vmm* shard_vmm(unsigned shard) const;
  std::uint64_t shard_frames(unsigned shard, Tier tier) const;
  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t reconfigurations() const { return reconfigurations_; }
  bool is_active(std::uint32_t tenant) const;
  std::vector<std::uint32_t> active_tenants() const;
  /// Tenants that ever arrived, in id order.
  std::vector<std::uint32_t> known_tenants() const;
  /// Local pages of `tenant` currently resident in `tier` (probes the
  /// tenant's touched set against its shard's page table).
  std::uint64_t resident_pages(std::uint32_t tenant, Tier tier) const;
  /// Fraction of `local_hot` currently DRAM-resident for `tenant` (0 when
  /// inactive or the set is empty) — the isolation metric's raw input.
  double hot_set_dram_retention(std::uint32_t tenant,
                                std::span<const PageId> local_hot) const;
  const TenantCounters& counters(std::uint32_t tenant) const;

 private:
  struct Shard;
  struct TenantState;

  TenantState& state_of(std::uint32_t tenant);
  TenantState* find_state(std::uint32_t tenant);
  const TenantState* find_state(std::uint32_t tenant) const;
  /// Recomputes per-shard budget slices from the active set (and, in
  /// demand mode, the current window counts); flushes and rebuilds every
  /// shard whose slice changed. Resets the demand window. Returns true
  /// when at least one live shard was flushed.
  bool reconfigure();
  /// Evicts every resident page of `tenant` (charged to it) and clears its
  /// touched set. Returns the number of pages evicted.
  std::uint64_t evict_tenant(std::uint32_t tenant);
  /// Partition flush: evicts every tenant's residents on the shard (charged
  /// to the owners as reconfig evictions, tenants in id order) and destroys
  /// the shard's policy and VMM. The caller rebuilds via build_shard.
  void flush_shard(unsigned index);
  /// (Re)builds the shard's VMM and policy cold at its recorded slice
  /// (no-op when the slice is zero frames).
  void build_shard(unsigned index);
  /// Folds the shard's counter movement since the last snapshot into the
  /// tenant's ledger and the group totals.
  void attribute(Shard& shard, TenantState& state);
  void tick_epoch();
  void emit_epoch();

  TenantGroupConfig config_;
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> known_;  ///< Ever-arrived tenant ids, sorted.
  std::vector<std::unique_ptr<TenantState>> states_;  ///< Parallel to known_.
  std::uint64_t accesses_ = 0;
  Nanoseconds visible_latency_ns_ = 0;
  model::EventCounts totals_;
  std::uint64_t reconfigurations_ = 0;
  std::uint64_t reconfig_evictions_ = 0;
  std::uint64_t window_accesses_ = 0;  ///< Since the last demand rebalance.
  // Epoch bookkeeping.
  std::vector<TenantEpochRecord> timeline_;
  std::uint64_t epoch_start_access_ = 0;
  std::uint64_t epoch_arrivals_ = 0;
  std::uint64_t epoch_departures_ = 0;
  model::EventCounts epoch_start_totals_;
  bool finished_ = false;
};

}  // namespace hymem::tenant
