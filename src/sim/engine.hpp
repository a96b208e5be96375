// Simulation engine: replays decoded blocks through a hybrid policy and
// packages the resulting event counts and model inputs.
#pragma once

#include <cstdint>
#include <string>

#include "model/endurance_model.hpp"
#include "model/events.hpp"
#include "model/model_params.hpp"
#include "model/perf_model.hpp"
#include "model/power_model.hpp"
#include "obs/epoch.hpp"
#include "obs/sampled_stats.hpp"
#include "policy/hybrid_policy.hpp"
#include "trace/block_source.hpp"

namespace hymem::sim {

/// Everything one run produces.
struct RunResult {
  std::string policy;
  std::string workload;
  std::uint64_t accesses = 0;
  double duration_s = 0;  ///< ROI wall time used for static proration.
  model::EventCounts counts;
  model::ModelParams params;
  /// Sum of the per-request latencies the policy reported (sanity handle;
  /// the headline metric is the Eq. 1 AMAT over `counts`).
  Nanoseconds visible_latency_ns = 0;
  /// Epoch time-series (empty unless the run sampled one; see
  /// ExperimentConfig::timeline_epoch and obs::EpochSampler).
  obs::Timeline timeline;
  /// End-of-run counters of the sampled-hotness subsystem; meaningful only
  /// when `has_sampled` (the run's policy was sampled-lru).
  obs::SampledStats sampled;
  bool has_sampled = false;

  model::AmatBreakdown amat() const { return model::amat(counts, params); }
  model::PowerBreakdown appr() const {
    return model::appr(counts, params, duration_s);
  }
  model::NvmWriteBreakdown nvm_writes() const {
    return model::nvm_writes(counts);
  }
};

/// The replay engine: every run goes through here.
///
/// When `warmup` is non-null and `warmup_passes` > 0, that many uncounted
/// passes over `warmup` run first (it may be `measured` itself), then the
/// VMM ledgers and the policy's own statistics are reset, so the measured
/// pass reflects the steady state (the paper sizes inputs "to minimize the
/// effect of starting from cold memory"). The measured pass then serves
/// every block of `measured` through the policy's on_block.
///
/// `sampler` (optional) records the measured pass only. The engine cuts
/// blocks at its epoch boundaries and takes each boundary snapshot after
/// the block is served.
///
/// Sources must be positioned at their start; passes after the first over
/// one source rewind it.
///
/// Throws std::invalid_argument when `measured` yields no accesses — bad
/// input, not a logic error, so the sweep runner reports it as a per-job
/// failure.
RunResult run_blocks(policy::HybridPolicy& policy,
                     trace::TraceBlockSource& measured,
                     trace::TraceBlockSource* warmup, unsigned warmup_passes,
                     double duration_s, obs::EpochSampler* sampler = nullptr);

}  // namespace hymem::sim
