// Hybrid-memory management policy interface.
//
// A HybridPolicy handles each main-memory request end-to-end by deciding
// placement, migration and eviction, and executing those decisions through
// the VMM's primitives (which do all the accounting). Every policy is costed
// by the same mechanism layer, so comparisons are apples-to-apples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "os/vmm.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace hymem::policy {

/// One decoded block of the replay stream, the unit the block engine hands
/// to a policy. `hashes` memoizes hash_page_id(pages[i]) — the decode stage
/// computes it once per access so the policy's map probes (page table, LRU
/// indexes) never rerun the mixer; it may be null when the producer does not
/// precompute (policies must treat it as an optional acceleration).
/// `latencies`, when non-null, receives each access's visible latency (the
/// engine asks for them only when an epoch sampler is attached).
struct AccessBlock {
  const PageId* pages = nullptr;
  const AccessType* types = nullptr;
  const std::uint64_t* hashes = nullptr;
  std::size_t size = 0;
  Nanoseconds* latencies = nullptr;
};

/// Base class of all hybrid-memory policies (and the single-module
/// baselines, which simply leave one module empty).
class HybridPolicy {
 public:
  explicit HybridPolicy(os::Vmm& vmm) : vmm_(vmm) {}
  virtual ~HybridPolicy() = default;
  HybridPolicy(const HybridPolicy&) = delete;
  HybridPolicy& operator=(const HybridPolicy&) = delete;

  virtual std::string_view name() const = 0;

  /// Serves one request; returns the latency visible to the requester
  /// (device hit latency, or disk latency plus any synchronous migrations).
  virtual Nanoseconds on_access(PageId page, AccessType type) = 0;

  /// Hints that `page` will be accessed shortly: warms the cache lines the
  /// policy's on_access will probe (page table, membership indexes). Replay
  /// loops call this a fixed distance ahead of on_access; it must have no
  /// architectural effect.
  virtual void prefetch(PageId page) const { vmm_.prefetch_translation(page); }

  /// Serves a decoded block of accesses and returns the summed visible
  /// latency. Semantically identical to calling on_access in sequence — the
  /// block engine's differential gate holds every override to that contract
  /// — but a policy may override it to batch the work: hoist per-access
  /// dispatch, reuse the memoized hashes, and keep its inner loop free of
  /// virtual calls. The default is the reference replay loop (prefetch a
  /// fixed distance ahead, then serve).
  virtual Nanoseconds on_block(const AccessBlock& block) {
    constexpr std::size_t kPrefetchDistance = 8;
    Nanoseconds total = 0;
    for (std::size_t i = 0; i < block.size; ++i) {
      if (i + kPrefetchDistance < block.size) {
        prefetch(block.pages[i + kPrefetchDistance]);
      }
      const Nanoseconds latency = on_access(block.pages[i], block.types[i]);
      if (block.latencies != nullptr) block.latencies[i] = latency;
      total += latency;
    }
    return total;
  }

  // Engine hooks for a policy with background work or run statistics of
  // its own (sampled-lru); each is a no-op (or a plain call) otherwise.

  /// Runs `fn` while background work is held off, so `fn` sees (or resets)
  /// consistent VMM ledgers. The engine's epoch snapshots and its
  /// warm-up-end ledger reset go through here.
  virtual void quiesced(const std::function<void()>& fn) const { fn(); }

  /// Stops background work for good. The engine calls it after the measured
  /// pass, before its final ledger reads. Must be idempotent.
  virtual void stop_background() {}

  /// Called once at the end of warm-up, after the VMM ledgers are reset. A
  /// policy that reports run statistics of its own (sampled-lru) zeroes
  /// them here, keeping its learned state.
  virtual void reset_stats() {}

  os::Vmm& vmm() { return vmm_; }
  const os::Vmm& vmm() const { return vmm_; }

 protected:
  os::Vmm& vmm_;
};

}  // namespace hymem::policy
