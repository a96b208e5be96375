#include "check/tenant_invariants.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "check/fuzzer.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"

namespace hymem::check {

void check_invariants(const tenant::TenantGroup& group) {
  const tenant::TenantGroupConfig& config = group.config();
  const bool any_active = !group.active_tenants().empty();

  // Budget conservation: slices sum to the shared budget exactly while any
  // tenant is active, to zero otherwise; every live shard's residency fits
  // its slice; shards without a VMM own no frames.
  std::uint64_t dram_slices = 0;
  std::uint64_t nvm_slices = 0;
  std::uint64_t dram_resident = 0;
  std::uint64_t nvm_resident = 0;
  for (unsigned s = 0; s < group.shard_count(); ++s) {
    const std::uint64_t dram = group.shard_frames(s, Tier::kDram);
    const std::uint64_t nvm = group.shard_frames(s, Tier::kNvm);
    dram_slices += dram;
    nvm_slices += nvm;
    const os::Vmm* vmm = group.shard_vmm(s);
    if (vmm == nullptr) {
      HYMEM_CHECK_MSG(dram + nvm == 0,
                      "a shard without a VMM must own no frames");
      continue;
    }
    HYMEM_CHECK_MSG(vmm->resident(Tier::kDram) <= dram,
                    "shard DRAM residency exceeds its slice");
    HYMEM_CHECK_MSG(vmm->resident(Tier::kNvm) <= nvm,
                    "shard NVM residency exceeds its slice");
    vmm->check_consistency();
    dram_resident += vmm->resident(Tier::kDram);
    nvm_resident += vmm->resident(Tier::kNvm);
  }
  HYMEM_CHECK_MSG(dram_slices == (any_active ? config.dram_frames : 0),
                  "shard DRAM slices must sum to the shared budget");
  HYMEM_CHECK_MSG(nvm_slices == (any_active ? config.nvm_frames : 0),
                  "shard NVM slices must sum to the shared budget");

  // Namespace coverage: the per-tenant residency (probed through each
  // tenant's own namespace) reproduces the shards' residency exactly —
  // no double-residency across namespaces, no orphaned residents — and
  // departed tenants hold nothing.
  std::uint64_t tenant_dram = 0;
  std::uint64_t tenant_nvm = 0;
  for (const std::uint32_t t : group.known_tenants()) {
    const std::uint64_t dram = group.resident_pages(t, Tier::kDram);
    const std::uint64_t nvm = group.resident_pages(t, Tier::kNvm);
    if (!group.is_active(t)) {
      HYMEM_CHECK_MSG(dram + nvm == 0,
                      "departed tenant still holds resident pages");
    }
    tenant_dram += dram;
    tenant_nvm += nvm;
  }
  HYMEM_CHECK_MSG(tenant_dram == dram_resident,
                  "per-tenant DRAM residency must cover the shards exactly");
  HYMEM_CHECK_MSG(tenant_nvm == nvm_resident,
                  "per-tenant NVM residency must cover the shards exactly");
}

namespace {

void expect_equal(std::uint64_t a, std::uint64_t b, const char* what) {
  if (a != b) {
    std::ostringstream os;
    os << "tenant fuzz replay diverged on " << what << ": " << a << " vs "
       << b << " (the tenant group must be deterministic)";
    throw std::logic_error(os.str());
  }
}

void expect_counts_equal(const model::EventCounts& a,
                         const model::EventCounts& b, const char* what) {
  const auto check = [&](std::uint64_t x, std::uint64_t y,
                         const char* field) {
    if (x != y) {
      std::ostringstream os;
      os << "tenant fuzz replay diverged on " << what << "." << field << ": "
         << x << " vs " << y;
      throw std::logic_error(os.str());
    }
  };
  check(a.accesses, b.accesses, "accesses");
  check(a.dram_read_hits, b.dram_read_hits, "dram_read_hits");
  check(a.dram_write_hits, b.dram_write_hits, "dram_write_hits");
  check(a.nvm_read_hits, b.nvm_read_hits, "nvm_read_hits");
  check(a.nvm_write_hits, b.nvm_write_hits, "nvm_write_hits");
  check(a.page_faults, b.page_faults, "page_faults");
  check(a.fills_to_dram, b.fills_to_dram, "fills_to_dram");
  check(a.fills_to_nvm, b.fills_to_nvm, "fills_to_nvm");
  check(a.migrations_to_dram, b.migrations_to_dram, "migrations_to_dram");
  check(a.migrations_to_nvm, b.migrations_to_nvm, "migrations_to_nvm");
  check(a.dirty_evictions, b.dirty_evictions, "dirty_evictions");
}

tenant::TenantGroupResult replay(const TenantFuzzCase& fc,
                                 const synth::TenantStream& stream,
                                 bool audit_every_op) {
  tenant::TenantGroup group(fc.group);
  for (const synth::TenantOp& op : stream.ops) {
    group.apply(op);
    if (audit_every_op) check_invariants(group);
  }
  tenant::TenantGroupResult result = group.finish(stream.name);
  check_invariants(group);
  return result;
}

}  // namespace

TenantFuzzOutcome run_tenant_fuzz_case(std::uint64_t seed,
                                       std::size_t accesses) {
  const TenantFuzzCase fc = make_tenant_fuzz_case(seed, accesses);
  synth::GeneratorOptions options;
  options.page_size = fc.group.page_size;
  const synth::TenantStream stream =
      synth::generate_tenant_stream(fc.spec, options);

  const tenant::TenantGroupResult first =
      replay(fc, stream, /*audit_every_op=*/true);

  // Determinism oracle: a fresh second replay (without the per-operation
  // audit — the audit itself must not affect behavior either) must land on
  // identical ledgers.
  const tenant::TenantGroupResult second =
      replay(fc, stream, /*audit_every_op=*/false);
  expect_equal(first.accesses, second.accesses, "access count");
  expect_equal(first.reconfigurations, second.reconfigurations,
               "reconfigurations");
  expect_equal(first.reconfig_evictions, second.reconfig_evictions,
               "reconfig evictions");
  expect_counts_equal(first.totals, second.totals, "totals");
  expect_equal(first.tenants.size(), second.tenants.size(), "tenant count");
  for (std::size_t i = 0; i < first.tenants.size(); ++i) {
    expect_equal(first.tenants[i].tenant, second.tenants[i].tenant,
                 "tenant id");
    expect_counts_equal(first.tenants[i].counts, second.tenants[i].counts,
                        "tenant counts");
    expect_equal(first.tenants[i].reconfig_evictions,
                 second.tenants[i].reconfig_evictions,
                 "tenant reconfig evictions");
  }

  // Attribution conservation: the per-tenant ledgers sum to the group
  // totals field by field (every event is charged to exactly one tenant).
  model::EventCounts sum;
  for (const tenant::TenantCounters& t : first.tenants) sum += t.counts;
  expect_counts_equal(sum, first.totals, "tenant-ledger sum vs totals");

  TenantFuzzOutcome out;
  out.accesses = first.accesses;
  out.tenants = static_cast<std::uint32_t>(first.tenants.size());
  out.reconfigurations = first.reconfigurations;
  out.reconfig_evictions = first.reconfig_evictions;
  out.totals = first.totals;
  out.describe = fc.describe();
  return out;
}

}  // namespace hymem::check
