// Hybrid-memory management policy interface, and the one replay loop every
// policy is served through.
//
// A HybridPolicy handles each main-memory request end-to-end by deciding
// placement, migration and eviction, and executing those decisions through
// the VMM's primitives (which do all the accounting). Every policy is costed
// by the same mechanism layer, so comparisons are apples-to-apples.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "os/vmm.hpp"
#include "util/flat_page_map.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace hymem::policy {

/// One decoded block of the replay stream, the unit the block engine hands
/// to a policy. `hashes` memoizes hash_page_id(pages[i]): the decode stage
/// computes it once per access, so the policy's map probes (page table,
/// replacement indexes) never rerun the mixer. `latencies`, when non-null,
/// receives each access's visible latency (the engine asks for them only
/// when an epoch sampler is attached).
struct AccessBlock {
  const PageId* pages = nullptr;
  const AccessType* types = nullptr;
  const std::uint64_t* hashes = nullptr;
  std::size_t size = 0;
  Nanoseconds* latencies = nullptr;
};

/// The demand-access counter a served access leaves to serve_block: the
/// device and type of the hit, or kNone for a page fault (which the VMM
/// records itself).
enum class Demand : std::uint8_t {
  kNone = 0,
  kDramRead,
  kDramWrite,
  kNvmRead,
  kNvmWrite,
};

/// One access as a final policy's serve() returns it.
struct Served {
  /// Visible latency, including the device latency of a `demand` hit.
  Nanoseconds latency;
  /// The device counter serve_block still has to record.
  Demand demand;
};

/// Base class of all hybrid-memory policies (and the single-module
/// baselines, which simply leave one module empty).
///
/// Every final policy P implements one non-virtual step,
/// `Served P::serve(PageId page, std::uint64_t hash, AccessType type)`,
/// which serves one access with `hash == util::hash_page_id(page)` and
/// returns every hit's demand counter to its caller. Its `on_block` is
/// `serve_block(*this, block)`, the only virtual serving call.
class HybridPolicy {
 public:
  explicit HybridPolicy(os::Vmm& vmm)
      : vmm_(vmm),
        demand_ns_{0,
                   vmm.demand_latency(Tier::kDram, AccessType::kRead),
                   vmm.demand_latency(Tier::kDram, AccessType::kWrite),
                   vmm.demand_latency(Tier::kNvm, AccessType::kRead),
                   vmm.demand_latency(Tier::kNvm, AccessType::kWrite)} {}
  virtual ~HybridPolicy() = default;
  HybridPolicy(const HybridPolicy&) = delete;
  HybridPolicy& operator=(const HybridPolicy&) = delete;

  virtual std::string_view name() const = 0;

  /// Serves a decoded block of accesses and returns the summed visible
  /// latency.
  virtual Nanoseconds on_block(const AccessBlock& block) = 0;

  /// Serves one request as a one-access block; returns the latency visible
  /// to the requester (device hit latency, or disk latency plus any
  /// synchronous migrations).
  Nanoseconds on_access(PageId page, AccessType type) {
    const std::uint64_t hash = util::hash_page_id(page);
    return on_block(AccessBlock{&page, &type, &hash, 1, nullptr});
  }

  /// Called once at the end of warm-up, after the VMM ledgers are reset. A
  /// policy that reports run statistics of its own (sampled-lru) zeroes
  /// them here, keeping its learned state.
  virtual void reset_stats() {}

  os::Vmm& vmm() { return vmm_; }
  const os::Vmm& vmm() const { return vmm_; }

 protected:
  /// A demand hit on `tier`: its device latency, its counter left to
  /// serve_block.
  Served hit(Tier tier, AccessType type) const {
    const auto demand = static_cast<Demand>(
        1 + (tier == Tier::kNvm ? 2 : 0) + (type == AccessType::kWrite ? 1 : 0));
    return {demand_ns_[static_cast<std::size_t>(demand)], demand};
  }

  /// A demand hit on the page `entry` maps: a write marks the entry dirty
  /// and, on NVM, notes the frame's wear.
  Served serve_hit(os::PageTableEntry& entry, AccessType type) {
    const Tier tier = entry.tier();
    if (type == AccessType::kWrite) {
      entry.mark_dirty();
      if (tier == Tier::kNvm) vmm_.note_nvm_demand_write(entry.frame());
    }
    return hit(tier, type);
  }

  os::Vmm& vmm_;

 private:
  std::array<Nanoseconds, 5> demand_ns_;  // indexed by Demand
};

/// The replay loop of every policy: serves `block` access by access through
/// the final policy's non-virtual P::serve with the decode-time hashes,
/// stores each latency only when the caller asked for them, and records
/// the block's demand hits with one Vmm::record_demand_batch per tier.
/// Counters are integers, so recording them at block end leaves every
/// ledger identical to recording them per access; the engine and the
/// invariant checkers read ledgers only between blocks.
template <typename P>
Nanoseconds serve_block(P& policy, const AccessBlock& block) {
  // Locals, so the policy's stores cannot force a reload per access.
  const PageId* const pages = block.pages;
  const AccessType* const types = block.types;
  const std::uint64_t* const hashes = block.hashes;
  Nanoseconds* const latencies = block.latencies;
  std::array<std::uint64_t, 5> demands{};
  Nanoseconds total = 0;
  for (std::size_t i = 0, n = block.size; i < n; ++i) {
    const Served served = policy.serve(pages[i], hashes[i], types[i]);
    ++demands[static_cast<std::size_t>(served.demand)];
    if (latencies != nullptr) latencies[i] = served.latency;
    total += served.latency;
  }
  // demands[d] counts Demand d: {none, DRAM read, DRAM write, NVM read,
  // NVM write}.
  if (demands[1] + demands[2] > 0) {
    policy.vmm().record_demand_batch(Tier::kDram, demands[1], demands[2]);
  }
  if (demands[3] + demands[4] > 0) {
    policy.vmm().record_demand_batch(Tier::kNvm, demands[3], demands[4]);
  }
  return total;
}

}  // namespace hymem::policy
