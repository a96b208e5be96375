// Epoch sampler: time-series versions of the paper's end-of-run metrics.
//
// The paper's evaluation (AMAT Eq. 1, APPR Eq. 2, endurance) reasons about
// end-of-run aggregates, but the mechanism it proposes — windowed
// read/write counters over the top readperc/writeperc of the NVM LRU
// queue — is a dynamic process. The sampler snapshots that process every
// `epoch_length` accesses:
//
//   * per-epoch delta EventCounts (hits, faults, fills, migrations), which
//     by construction sum exactly to the end-of-run totals the PR-3 oracle
//     verifies;
//   * queue occupancies and the windowed-counter population (pages in each
//     window, mean counter value, effective thresholds, crossings);
//   * rolling AMAT/APPR evaluated over each epoch's delta counts — the
//     paper's figures as time series, showing convergence and churn.
//
// One sampler instruments one run (no locks, no sharing); the engine feeds
// it whole blocks of completed accesses, cut so that every epoch boundary
// falls at the end of a block. The resulting Timeline travels inside
// RunResult so the sweep runner can splice per-job timelines into one
// deterministic export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/migration_scheme.hpp"
#include "model/events.hpp"
#include "model/model_params.hpp"
#include "obs/sampled_stats.hpp"
#include "os/vmm.hpp"

namespace hymem::obs {

/// One epoch's sample: delta counts plus instantaneous structure snapshots
/// taken at the epoch boundary.
struct EpochRecord {
  std::uint64_t epoch = 0;       ///< 0-based epoch index.
  std::uint64_t end_access = 0;  ///< Cumulative accesses at the boundary.
  /// Events inside this epoch only (delta.accesses = epoch's length; the
  /// final epoch may be shorter than the configured length).
  model::EventCounts delta;

  // Queue state at the epoch boundary.
  std::uint64_t dram_resident = 0;
  std::uint64_t nvm_resident = 0;

  // Windowed-counter population (two-lru policies only; zero otherwise).
  core::CountedLruQueue::WindowStats read_window;
  core::CountedLruQueue::WindowStats write_window;
  std::uint64_t read_threshold = 0;   ///< Effective (tracks adaptive).
  std::uint64_t write_threshold = 0;
  std::uint64_t promotions = 0;  ///< Threshold crossings admitted (delta).
  std::uint64_t demotions = 0;   ///< Capacity demotions (delta).
  std::uint64_t throttled_promotions = 0;  ///< Crossings suppressed (delta).

  // Rolling models over the delta counts (Eq. 1 / Eq. 2 per epoch).
  double amat_total_ns = 0.0;
  double appr_total_nj = 0.0;
  /// Mean visible latency the policy reported over the epoch's accesses.
  double mean_visible_latency_ns = 0.0;

  // Sampled-hotness subsystem (sampled-lru runs only; zero otherwise).
  std::uint64_t samples = 0;             ///< Accesses sampled (delta).
  std::uint64_t sample_drops = 0;        ///< Ring-full drops (delta).
  std::uint64_t coolings = 0;            ///< Cooling passes (delta).
  std::uint64_t sampled_promotions = 0;  ///< Async promotions (delta).
  std::uint64_t sampled_demotions = 0;   ///< Async demotions (delta).
  std::uint64_t sampled_stale = 0;       ///< Stale candidates (delta).
  std::uint64_t migration_backlog = 0;   ///< Ring occupancy at the boundary.
  std::uint64_t hot_ring_hwm = 0;        ///< High-water marks (cumulative
  std::uint64_t cold_ring_hwm = 0;       ///< gauges, not deltas).
};

/// The whole run's epoch series.
struct Timeline {
  std::uint64_t epoch_length = 0;  ///< 0 = sampling was off.
  std::vector<EpochRecord> epochs;

  bool empty() const { return epochs.empty(); }
};

/// Cuts the measured pass into epochs of `epoch_length` accesses (the final
/// epoch keeps the remainder). Reads the VMM — and, when the run uses the
/// paper's scheme, the policy's queues — at every boundary. Observation is
/// read-only: the sampler never mutates the policy or the VMM.
class EpochSampler final {
 public:
  /// `policy` may be null (single-tier runs have no windows to sample);
  /// `duration_s` is the run's ROI wall time, prorated per epoch by access
  /// share for the Eq. 2 static term. `sampled` is the sampled-hotness
  /// stats source when the run's policy carries one (sampled-lru), null
  /// otherwise; when present its counters are charted per epoch.
  EpochSampler(std::uint64_t epoch_length, const os::Vmm& vmm,
               const core::TwoLruMigrationPolicy* policy, double duration_s,
               const SampledStatsSource* sampled = nullptr);

  /// Accesses left in the open epoch. The engine never records past it, so
  /// each boundary snapshot follows a completed block.
  std::uint64_t until_boundary() const { return epoch_length_ - in_epoch_; }

  /// Records `n` completed accesses (n <= until_boundary()) with the visible
  /// latencies the policy served them with; emits the epoch when they close
  /// it. The only per-access work is the epoch's latency sum: everything
  /// else is read from the VMM and the policy at the boundary.
  void record(const Nanoseconds* latencies, std::size_t n);

  /// The measured pass finished: emits the remainder epoch and back-fills
  /// each epoch's APPR from its share of the run.
  void finish();

  const Timeline& timeline() const { return timeline_; }
  Timeline take_timeline() { return std::move(timeline_); }

 private:
  void emit_epoch();

  const os::Vmm& vmm_;
  const core::TwoLruMigrationPolicy* policy_;
  const SampledStatsSource* sampled_;
  double duration_s_;
  model::ModelParams params_;
  Timeline timeline_;
  std::uint64_t epoch_length_;
  std::uint64_t accesses_ = 0;       ///< Total accesses observed.
  std::uint64_t in_epoch_ = 0;       ///< Accesses in the open epoch.
  double epoch_latency_ns_ = 0.0;    ///< Visible latency in the open epoch.
  model::EventCounts last_counts_;   ///< Cumulative counts at last boundary.
  std::uint64_t last_promotions_ = 0;
  std::uint64_t last_demotions_ = 0;
  std::uint64_t last_throttled_ = 0;
  SampledStats last_sampled_;  ///< Snapshot at the previous boundary.
};

}  // namespace hymem::obs
