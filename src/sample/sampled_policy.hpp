// sampled-lru: hybrid placement driven by sampled hotness and an
// asynchronous bounded-rate migrator — the deployable counterpart to the
// paper's omniscient two-LRU scheme.
//
// Serving path (every access): pure demand handling. Hits are served where
// the page sits; faults fill DRAM first, then NVM, and once memory is full
// evict the oldest NVM-resident page (FIFO fault order — the only ordering
// a sampling OS gets for free, see tier_queue.hpp). No inline migration.
//
// Placement path (asynchronous): after serving each access the policy feeds
// its SamplingTap, which samples every Nth access into per-page hotness
// counters and emits promotion/demotion candidates into SPSC rings; the
// migrator drains the rings and applies at most `migration_budget`
// candidates per `drain_period` accesses. Two modes:
//
//  * virtual time (default): drains run on the serving thread whenever the
//    access count crosses a drain_period boundary — fully deterministic,
//    byte-identical output for any sweep worker count, used by sweeps and
//    the differential oracle;
//  * threaded: a real background thread consumes the rings under a token
//    bucket, sharing the VMM with the serving path via one mutex — the
//    production shape, exercised under TSan; timing-dependent by nature.
//
// The budget counts applied *candidates* (a promotion that forces a swap
// demotion is one candidate, two page copies), so the rate bound is exact
// and swap pressure cannot livelock the drain loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "obs/sampled_stats.hpp"
#include "policy/hybrid_policy.hpp"
#include "sample/config.hpp"
#include "sample/tap.hpp"
#include "sample/tier_queue.hpp"
#include "util/spsc_ring.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace hymem::sample {

/// Sampled-hotness hybrid policy with asynchronous background migration.
class SampledLruPolicy final : public policy::HybridPolicy,
                              public obs::SampledStatsSource {
 public:
  SampledLruPolicy(os::Vmm& vmm, const SampleConfig& config);
  ~SampledLruPolicy() override;

  std::string_view name() const override { return "sampled-lru"; }
  Nanoseconds on_access(PageId page, AccessType type) override;
  Nanoseconds on_block(const policy::AccessBlock& block) override;

  /// serve_block's step: runs a due virtual-time drain, serves the access
  /// (recording its hit itself, under the serving mutex in threaded mode),
  /// then feeds it to the sampling tap.
  policy::Served serve(PageId page, std::uint64_t hash, AccessType type);

  /// Stops the background migrator thread (threaded mode; no-op otherwise).
  /// Idempotent; also called by the destructor. The engine calls it when
  /// the measured pass ends, so its final VMM reads happen-after the last
  /// background mutation. After it returns the structures are safe to
  /// inspect without locking.
  void stop_background() override;

  /// Runs `fn` holding the serving mutex in threaded mode (a plain call in
  /// virtual-time mode), so the engine's epoch snapshots and warm-up-end
  /// ledger reset stay consistent while the migrator is live. The mutex is
  /// recursive, so `fn` may safely call sampled_stats().
  void quiesced(const std::function<void()>& fn) const override {
    if (!config_.threaded) {
      fn();
      return;
    }
    const std::lock_guard<std::recursive_mutex> lock(mu_);
    fn();
  }

  obs::SampledStats sampled_stats() const override;

  /// Zeroes every stat counter (tap + migrator) while keeping the learned
  /// state — hotness counters, ring contents, residency queues. The engine
  /// calls it between the warm-up passes and the measured pass, after
  /// Vmm::reset_accounting(). Serving-thread only.
  void reset_stats() override;

  const SampleConfig& config() const { return config_; }

  // --- Introspection for src/check ----------------------------------------
  /// Candidates applied by the most recent virtual-time drain pass (the
  /// rate-budget invariant checks this against migration_budget).
  std::uint64_t last_drain_ops() const { return last_drain_ops_; }
  const TierQueue& queue(Tier tier) const {
    return tier == Tier::kDram ? dram_queue_ : nvm_queue_;
  }
  const util::SpscRing<PageId>& hot_ring() const { return hot_ring_; }
  const util::SpscRing<PageId>& cold_ring() const { return cold_ring_; }
  /// Tap-side internals (hotness board, tap counters). Read-only.
  const SamplingTap& sampling_tap() const { return tap_; }

  /// Called after every completed access (post-drain, post-serve), same
  /// contract as TwoLruMigrationPolicy::AuditHook: read-only introspection.
  /// In threaded mode the hook runs under the serving mutex and therefore
  /// must not call sampled_stats() (which takes it).
  using AuditHook = std::function<void(const SampledLruPolicy&, PageId,
                                       AccessType)>;
  void set_audit_hook(AuditHook hook) { audit_hook_ = std::move(hook); }

 private:
  /// Demand handling for one access: hits where the page sits, faults
  /// into the first tier with a free frame.
  Nanoseconds serve_demand(PageId page, AccessType type);
  void drain_virtual();
  /// Applies one candidate; returns 1 if it consumed budget, 0 if stale.
  std::uint64_t apply_promotion(PageId page);
  std::uint64_t apply_demotion(PageId page);
  TierQueue& queue_mut(Tier tier) {
    return tier == Tier::kDram ? dram_queue_ : nvm_queue_;
  }
  void background_loop();

  SampleConfig config_;
  util::SpscRing<PageId> hot_ring_;
  util::SpscRing<PageId> cold_ring_;
  SamplingTap tap_;  // constructed after the rings it feeds
  TierQueue dram_queue_;
  TierQueue nvm_queue_;

  std::uint64_t accesses_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t stale_candidates_ = 0;
  std::uint64_t migration_copies_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t last_drain_ops_ = 0;

  AuditHook audit_hook_;

  // Threaded mode only. mu_ guards the VMM, the tier queues and the
  // migrator counters; the rings are the lock-free channel (producer: tap
  // on the serving thread, consumer: the background thread). Recursive so
  // quiesced() can nest over readers that lock on their own
  // (sampled_stats(), the tap's residency checks).
  mutable std::recursive_mutex mu_;
  std::thread background_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> accesses_shared_{0};
};

/// The "sampled-lru" entry of the policy factory.
std::unique_ptr<policy::HybridPolicy> make_sampled_lru(
    os::Vmm& vmm, const SampleConfig& config);

}  // namespace hymem::sample
