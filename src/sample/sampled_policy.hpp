// sampled-lru: hybrid placement driven by sampled hotness and a
// bounded-rate migrator off the serving path — the deployable counterpart
// to the paper's omniscient two-LRU scheme.
//
// Serving path (every access): pure demand handling. Hits are served where
// the page sits; faults fill DRAM first, then NVM, and once memory is full
// evict the oldest NVM-resident page (FIFO fault order — the only ordering
// a sampling OS gets for free, see tier_queue.hpp). No inline migration.
//
// Placement path (deferred): after serving each access the policy feeds
// its SamplingTap, which samples every Nth access into per-page hotness
// counters and emits promotion/demotion candidates into candidate rings;
// the migrator drains the rings and applies at most `migration_budget`
// candidates per `drain_period` accesses. It runs in virtual time: a drain
// runs on the serving thread whenever the access count crosses a
// drain_period boundary, so a run is fully deterministic and byte-identical
// for any sweep worker count.
//
// The budget counts applied *candidates* (a promotion that forces a swap
// demotion is one candidate, two page copies), so the rate bound is exact
// and swap pressure cannot livelock the drain loop.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "obs/sampled_stats.hpp"
#include "policy/hybrid_policy.hpp"
#include "sample/config.hpp"
#include "sample/tap.hpp"
#include "sample/tier_queue.hpp"
#include "util/spsc_ring.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace hymem::sample {

/// Sampled-hotness hybrid policy with deferred, rate-bounded migration.
class SampledLruPolicy final : public policy::HybridPolicy,
                              public obs::SampledStatsSource {
 public:
  SampledLruPolicy(os::Vmm& vmm, const SampleConfig& config);

  std::string_view name() const override { return "sampled-lru"; }
  Nanoseconds on_block(const policy::AccessBlock& block) override;

  /// serve_block's step: runs a due drain, serves the access, then feeds
  /// it to the sampling tap.
  policy::Served serve(PageId page, std::uint64_t hash, AccessType type);

  obs::SampledStats sampled_stats() const override;

  /// Zeroes every stat counter (tap + migrator) while keeping the learned
  /// state — hotness counters, ring contents, residency queues. The engine
  /// calls it between the warm-up passes and the measured pass, after
  /// Vmm::reset_accounting().
  void reset_stats() override;

  const SampleConfig& config() const { return config_; }

  // --- Introspection for src/check ----------------------------------------
  /// Candidates applied by the most recent drain pass (the rate-budget
  /// invariant checks this against migration_budget).
  std::uint64_t last_drain_ops() const { return last_drain_ops_; }
  const TierQueue& queue(Tier tier) const {
    return tier == Tier::kDram ? dram_queue_ : nvm_queue_;
  }
  const util::SpscRing<PageId>& hot_ring() const { return hot_ring_; }
  const util::SpscRing<PageId>& cold_ring() const { return cold_ring_; }
  /// Tap-side internals (hotness board, tap counters). Read-only.
  const SamplingTap& sampling_tap() const { return tap_; }

 private:
  /// Demand handling for one access: hits where the page sits, faults
  /// into the first tier with a free frame.
  policy::Served serve_demand(PageId page, std::uint64_t hash,
                              AccessType type);
  void drain();
  /// Applies one candidate; returns 1 if it consumed budget, 0 if stale.
  std::uint64_t apply_promotion(PageId page);
  std::uint64_t apply_demotion(PageId page);
  TierQueue& queue_mut(Tier tier) {
    return tier == Tier::kDram ? dram_queue_ : nvm_queue_;
  }

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
};

/// The "sampled-lru" entry of the policy factory.
std::unique_ptr<policy::HybridPolicy> make_sampled_lru(
    os::Vmm& vmm, const SampleConfig& config);

}  // namespace hymem::sample
