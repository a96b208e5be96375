#include "tenant/tenant_group.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/experiment.hpp"
#include "sim/policy_factory.hpp"
#include "trace/access.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"

namespace hymem::tenant {

namespace {

model::ModelParams params_for(const TenantGroupConfig& config) {
  model::ModelParams p;
  p.dram = config.dram;
  p.nvm = config.nvm;
  p.disk_latency_ns = config.disk.access_latency_ns;
  p.page_factor = config.page_size / config.access_granularity;
  p.dram_bytes = config.dram_frames * config.page_size;
  p.nvm_bytes = config.nvm_frames * config.page_size;
  p.transfer_mode = config.transfer_mode;
  return p;
}

}  // namespace

std::string to_string(BudgetMode mode) {
  switch (mode) {
    case BudgetMode::kStaticEqual: return "static";
    case BudgetMode::kDemandProportional: return "demand";
    default: return "shared";
  }
}

BudgetMode parse_budget_mode(const std::string& name) {
  if (name == "static") return BudgetMode::kStaticEqual;
  if (name == "demand") return BudgetMode::kDemandProportional;
  if (name == "shared") return BudgetMode::kSharedQueue;
  throw std::invalid_argument("unknown budget mode: " + name +
                              " (known: static, demand, shared)");
}

PageId namespaced_page(std::uint32_t tenant, PageId local) {
  if (tenant >= kMaxTenants) {
    throw std::invalid_argument("tenant id out of range");
  }
  if (local > kTenantPageMask) {
    throw std::invalid_argument(
        "tenant-local page overflows the per-tenant page space");
  }
  return (static_cast<PageId>(tenant) << kTenantPageBits) | local;
}

std::uint32_t tenant_of_page(PageId namespaced) {
  return static_cast<std::uint32_t>(namespaced >> kTenantPageBits);
}

PageId local_page(PageId namespaced) { return namespaced & kTenantPageMask; }

double TenantGroupResult::tenant_amat_ns(std::size_t index) const {
  const TenantCounters& t = tenants.at(index);
  if (t.counts.accesses == 0) return 0.0;
  return model::amat(t.counts, params).total();
}

// --- Internal state ----------------------------------------------------------

struct TenantGroup::Shard {
  std::uint64_t dram_frames = 0;
  std::uint64_t nvm_frames = 0;
  std::unique_ptr<os::Vmm> vmm;
  std::unique_ptr<policy::HybridPolicy> policy;
  std::vector<std::uint32_t> tenants;  ///< Active tenant ids, sorted.
  /// VMM counters at the last attribution: a tenant is charged exactly the
  /// counter movement its operation caused.
  model::EventCounts last;
};

struct TenantGroup::TenantState {
  std::uint32_t id = 0;
  TenantCounters counters;
  bool active = false;
  unsigned shard = 0;
  std::uint64_t window_accesses = 0;  ///< Demand signal, reset per rebalance.
  model::EventCounts epoch_start;     ///< Counts at the open epoch's start.
  util::FlatPageSet touched;          ///< Local pages possibly resident.
  std::vector<PageId> touched_list;   ///< Same, first-touch order.
};

TenantGroup::TenantGroup(const TenantGroupConfig& config) : config_(config) {
  if (!sim::is_shardable(config_.policy)) {
    sim::throw_unshardable_policy("tenant groups", config_.policy);
  }
  if (config_.budget_mode == BudgetMode::kSharedQueue) config_.shards = 1;
  if (config_.shards == 0) {
    throw std::invalid_argument("tenant groups need shards >= 1");
  }
  if (config_.dram_frames + config_.nvm_frames == 0) {
    throw std::invalid_argument("tenant groups need a nonzero frame budget");
  }
  if (config_.page_size == 0 || config_.access_granularity == 0 ||
      config_.page_size % config_.access_granularity != 0) {
    throw std::invalid_argument(
        "page size must be a positive multiple of the access granularity");
  }
  shards_.resize(config_.shards);
  totals_.page_factor = config_.page_size / config_.access_granularity;
}

TenantGroup::~TenantGroup() = default;

unsigned TenantGroup::shard_count() const {
  return static_cast<unsigned>(shards_.size());
}

unsigned TenantGroup::shard_of(std::uint32_t tenant) const {
  if (shards_.size() == 1) return 0;
  return static_cast<unsigned>(util::hash_page_id(tenant) % shards_.size());
}

const os::Vmm* TenantGroup::shard_vmm(unsigned shard) const {
  return shards_.at(shard).vmm.get();
}

std::uint64_t TenantGroup::shard_frames(unsigned shard, Tier tier) const {
  const Shard& s = shards_.at(shard);
  return tier == Tier::kDram ? s.dram_frames : s.nvm_frames;
}

TenantGroup::TenantState& TenantGroup::state_of(std::uint32_t tenant) {
  const auto it = std::lower_bound(known_.begin(), known_.end(), tenant);
  const auto idx = static_cast<std::size_t>(it - known_.begin());
  if (it != known_.end() && *it == tenant) return *states_[idx];
  auto state = std::make_unique<TenantState>();
  state->id = tenant;
  state->counters.tenant = tenant;
  state->counters.counts.page_factor = totals_.page_factor;
  known_.insert(it, tenant);
  states_.insert(states_.begin() + static_cast<std::ptrdiff_t>(idx),
                 std::move(state));
  return *states_[idx];
}

TenantGroup::TenantState* TenantGroup::find_state(std::uint32_t tenant) {
  const auto it = std::lower_bound(known_.begin(), known_.end(), tenant);
  if (it == known_.end() || *it != tenant) return nullptr;
  return states_[static_cast<std::size_t>(it - known_.begin())].get();
}

const TenantGroup::TenantState* TenantGroup::find_state(
    std::uint32_t tenant) const {
  const auto it = std::lower_bound(known_.begin(), known_.end(), tenant);
  if (it == known_.end() || *it != tenant) return nullptr;
  return states_[static_cast<std::size_t>(it - known_.begin())].get();
}

void TenantGroup::attribute(Shard& shard, TenantState& state) {
  if (shard.vmm == nullptr) return;
  const auto cur = model::EventCounts::read_counters(*shard.vmm);
  const model::EventCounts moved = cur - shard.last;
  state.counters.counts += moved;
  totals_ += moved;
  shard.last = cur;
}

std::uint64_t TenantGroup::evict_tenant(std::uint32_t tenant) {
  TenantState* state = find_state(tenant);
  HYMEM_CHECK(state != nullptr);
  Shard& shard = shards_[state->shard];
  std::uint64_t evicted = 0;
  if (shard.vmm != nullptr) {
    for (const PageId local : state->touched_list) {
      const PageId page = namespaced_page(tenant, local);
      if (!shard.vmm->is_resident(page)) continue;
      shard.vmm->evict(page);
      ++evicted;
    }
    attribute(shard, *state);
  }
  state->touched = util::FlatPageSet{};
  state->touched_list.clear();
  return evicted;
}

void TenantGroup::flush_shard(unsigned index) {
  Shard& shard = shards_[index];
  if (shard.vmm == nullptr) return;
  // The evictions below bypass the policy, so the dirty bits it parked on
  // its own nodes must reach the page table first.
  shard.policy->publish_dirty();
  for (std::size_t i = 0; i < known_.size(); ++i) {
    TenantState& state = *states_[i];
    if (state.shard != index || state.touched_list.empty()) continue;
    const std::uint64_t evicted = evict_tenant(known_[i]);
    state.counters.reconfig_evictions += evicted;
    reconfig_evictions_ += evicted;
  }
  shard.policy.reset();
  shard.vmm.reset();
  shard.last = model::EventCounts{};
}

void TenantGroup::build_shard(unsigned index) {
  Shard& shard = shards_[index];
  if (shard.dram_frames + shard.nvm_frames == 0) return;
  const sim::MemorySizing sizing{shard.dram_frames + shard.nvm_frames,
                                 shard.dram_frames, shard.nvm_frames};
  shard.vmm = std::make_unique<os::Vmm>(sim::vmm_config_for(sizing, config_));
  shard.policy = sim::make_policy(config_.policy, *shard.vmm, config_.migration);
  shard.last = model::EventCounts{};
}

bool TenantGroup::reconfigure() {
  const std::size_t n = shards_.size();
  std::vector<std::uint64_t> weights(n, 0);
  bool any_active = false;
  for (const auto& state : states_) {
    if (!state->active) continue;
    any_active = true;
    // Static mode: one unit per tenant (equal split). Demand mode: one unit
    // plus the tenant's accesses this window, so idle tenants keep a floor.
    const std::uint64_t w =
        config_.budget_mode == BudgetMode::kDemandProportional
            ? 1 + state->window_accesses
            : 1;
    weights[state->shard] += w;
  }
  std::vector<std::uint64_t> dram(n, 0);
  std::vector<std::uint64_t> nvm(n, 0);
  if (any_active) {
    dram = util::split_budget(config_.dram_frames, weights);
    nvm = util::split_budget(config_.nvm_frames, weights);
  }
  bool flushed = false;
  for (std::size_t i = 0; i < n; ++i) {
    Shard& shard = shards_[i];
    if (shard.dram_frames == dram[i] && shard.nvm_frames == nvm[i]) continue;
    if (shard.vmm != nullptr) {
      flush_shard(static_cast<unsigned>(i));
      flushed = true;
    }
    shard.dram_frames = dram[i];
    shard.nvm_frames = nvm[i];
    build_shard(static_cast<unsigned>(i));
  }
  for (const auto& state : states_) state->window_accesses = 0;
  window_accesses_ = 0;
  return flushed;
}

void TenantGroup::arrive(std::uint32_t tenant) {
  if (finished_) throw std::logic_error("tenant group already finished");
  if (tenant >= kMaxTenants) {
    throw std::invalid_argument("tenant id out of range");
  }
  TenantState& state = state_of(tenant);
  if (state.active) return;
  state.active = true;
  ++state.counters.arrivals;
  ++epoch_arrivals_;
  state.shard = shard_of(tenant);
  Shard& shard = shards_[state.shard];
  shard.tenants.insert(
      std::lower_bound(shard.tenants.begin(), shard.tenants.end(), tenant),
      tenant);
  if (reconfigure()) ++reconfigurations_;
}

void TenantGroup::depart(std::uint32_t tenant) {
  if (finished_) throw std::logic_error("tenant group already finished");
  TenantState* state = find_state(tenant);
  if (state == nullptr || !state->active) return;
  state->active = false;
  ++state->counters.departures;
  ++epoch_departures_;
  const unsigned index = state->shard;
  Shard& shard = shards_[index];
  const auto it =
      std::lower_bound(shard.tenants.begin(), shard.tenants.end(), tenant);
  HYMEM_CHECK(it != shard.tenants.end() && *it == tenant);
  shard.tenants.erase(it);
  bool flushed = reconfigure();
  // The reconfigure above flushes shards whose slice changed; in the
  // single-shard modes the slice is the whole budget and never changes, so
  // the departed address space's teardown is explicit: flush its shard
  // (departure collateral is the shared-queue mode's isolation story) and
  // rebuild it cold at the same size.
  if (!state->touched_list.empty() && shards_[index].vmm != nullptr) {
    flush_shard(index);
    build_shard(index);
    flushed = true;
  }
  if (flushed) ++reconfigurations_;
}

void TenantGroup::apply(const synth::TenantOp& op) {
  switch (op.kind) {
    case synth::TenantOp::Kind::kArrive: arrive(op.tenant); break;
    case synth::TenantOp::Kind::kDepart: depart(op.tenant); break;
    default: serve(op.tenant, op.access); break;
  }
}

Nanoseconds TenantGroup::serve(std::uint32_t tenant,
                               const trace::MemAccess& access) {
  if (finished_) throw std::logic_error("tenant group already finished");
  TenantState* state = find_state(tenant);
  if (state == nullptr || !state->active) {
    arrive(tenant);
    state = &state_of(tenant);  // arrive() created it; never null.
  }
  Shard& shard = shards_[state->shard];
  HYMEM_CHECK(shard.policy != nullptr);
  const PageId local = trace::page_of(access.addr, config_.page_size);
  const PageId page = namespaced_page(tenant, local);
  const Nanoseconds latency = shard.policy->on_access(page, access.type);
  if (state->touched.insert(local)) {
    state->touched_list.push_back(local);
  }
  ++accesses_;
  ++totals_.accesses;
  ++state->counters.counts.accesses;
  ++state->window_accesses;
  ++window_accesses_;
  state->counters.visible_latency_ns += latency;
  visible_latency_ns_ += latency;
  attribute(shard, *state);
  if (config_.budget_mode == BudgetMode::kDemandProportional &&
      config_.rebalance_period > 0 &&
      window_accesses_ >= config_.rebalance_period) {
    if (reconfigure()) ++reconfigurations_;
  }
  tick_epoch();
  return latency;
}

void TenantGroup::tick_epoch() {
  if (config_.epoch_accesses == 0) return;
  if (accesses_ - epoch_start_access_ < config_.epoch_accesses) return;
  emit_epoch();
}

void TenantGroup::emit_epoch() {
  TenantEpochRecord rec;
  rec.epoch = timeline_.size();
  rec.end_access = accesses_;
  rec.arrivals = epoch_arrivals_;
  rec.departures = epoch_departures_;
  rec.reconfigurations = reconfigurations_;
  rec.delta = totals_ - epoch_start_totals_;
  const model::ModelParams params = params_for(config_);
  if (rec.delta.accesses > 0) {
    rec.amat_total_ns = model::amat(rec.delta, params).total();
  }
  std::vector<double> amats;
  std::uint32_t active = 0;
  for (const auto& state : states_) {
    if (state->active) ++active;
    const model::EventCounts delta =
        state->counters.counts - state->epoch_start;
    if (delta.accesses > 0) {
      amats.push_back(model::amat(delta, params).total());
    }
    state->epoch_start = state->counters.counts;
  }
  rec.active_tenants = active;
  rec.fairness = summarize_fairness(amats);
  for (const Shard& shard : shards_) {
    if (shard.vmm == nullptr) continue;
    rec.dram_resident += shard.vmm->resident(Tier::kDram);
    rec.nvm_resident += shard.vmm->resident(Tier::kNvm);
  }
  timeline_.push_back(rec);
  epoch_start_access_ = accesses_;
  epoch_start_totals_ = totals_;
  epoch_arrivals_ = 0;
  epoch_departures_ = 0;
}

TenantGroupResult TenantGroup::run(const synth::TenantStream& stream) {
  if (finished_) throw std::logic_error("tenant group already finished");
  if (stream.page_size != config_.page_size) {
    throw std::invalid_argument(
        "tenant stream page size does not match the group's");
  }
  for (const synth::TenantOp& op : stream.ops) apply(op);
  return finish(stream.name);
}

TenantGroupResult TenantGroup::finish(std::string workload_name) {
  if (finished_) throw std::logic_error("tenant group already finished");
  finished_ = true;
  if (config_.epoch_accesses > 0 && accesses_ > epoch_start_access_) {
    emit_epoch();
  }
  TenantGroupResult result;
  result.policy = config_.policy;
  result.workload = std::move(workload_name);
  result.accesses = accesses_;
  result.duration_s = config_.duration_s;
  result.totals = totals_;
  result.params = params_for(config_);
  result.visible_latency_ns = visible_latency_ns_;
  result.reconfigurations = reconfigurations_;
  result.reconfig_evictions = reconfig_evictions_;
  result.timeline = std::move(timeline_);
  std::vector<double> amats;
  result.tenants.reserve(states_.size());
  for (const auto& state : states_) {
    result.tenants.push_back(state->counters);
    if (state->counters.counts.accesses > 0) {
      amats.push_back(model::amat(state->counters.counts, result.params).total());
    }
  }
  result.fairness = summarize_fairness(amats);
  return result;
}

bool TenantGroup::is_active(std::uint32_t tenant) const {
  const TenantState* state = find_state(tenant);
  return state != nullptr && state->active;
}

std::vector<std::uint32_t> TenantGroup::active_tenants() const {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < known_.size(); ++i) {
    if (states_[i]->active) out.push_back(known_[i]);
  }
  return out;
}

std::vector<std::uint32_t> TenantGroup::known_tenants() const { return known_; }

std::uint64_t TenantGroup::resident_pages(std::uint32_t tenant,
                                          Tier tier) const {
  const TenantState* state = find_state(tenant);
  if (state == nullptr) return 0;
  const Shard& shard = shards_[state->shard];
  if (shard.vmm == nullptr) return 0;
  std::uint64_t count = 0;
  for (const PageId local : state->touched_list) {
    const auto where = shard.vmm->tier_of(namespaced_page(tenant, local));
    if (where.has_value() && *where == tier) ++count;
  }
  return count;
}

double TenantGroup::hot_set_dram_retention(
    std::uint32_t tenant, std::span<const PageId> local_hot) const {
  if (local_hot.empty()) return 0.0;
  const TenantState* state = find_state(tenant);
  if (state == nullptr || !state->active) return 0.0;
  const Shard& shard = shards_[state->shard];
  if (shard.vmm == nullptr) return 0.0;
  std::uint64_t in_dram = 0;
  for (const PageId local : local_hot) {
    const auto where = shard.vmm->tier_of(namespaced_page(tenant, local));
    if (where.has_value() && *where == Tier::kDram) ++in_dram;
  }
  return static_cast<double>(in_dram) / static_cast<double>(local_hot.size());
}

const TenantCounters& TenantGroup::counters(std::uint32_t tenant) const {
  const TenantState* state = find_state(tenant);
  if (state == nullptr) {
    throw std::invalid_argument("unknown tenant: never arrived");
  }
  return state->counters;
}

}  // namespace hymem::tenant
