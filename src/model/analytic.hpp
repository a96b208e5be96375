// Analytical estimator — src/model's third citizen (ROADMAP item 2).
//
// Predicts the two-LRU migration scheme's Table I probabilities, Eq. 1 AMAT,
// Eq. 2 APPR and NVM endurance/lifetime directly from a workload's
// reuse-distance profile (trace/reuse_distance) and a MigrationConfig — no
// trace replay. The approach follows the authors' own analytical follow-up
// (arXiv:1903.10067): for a stack algorithm, the hit ratio at capacity C is
// the reuse-distance CDF at C, so a single O(n log n) profiling pass per
// workload replaces a simulation per configuration, and a config grid can be
// ranked at thousands of cells per second (the runner's analytic prescreen).
//
// Model sketch (derivation + measured error bands: DESIGN.md §13):
//   * Total residency behaves as a global LRU of C = Cd + Cn frames:
//     PMiss = 1 - F(C), with cold (first-touch) accesses always missing.
//   * The DRAM front receives faults, promotions and DRAM hits; NVM hits do
//     not touch it. A DRAM-resident page therefore decays at the fractional
//     rate psi = PMiss + PHitDRAM + PMigD, giving an *effective* DRAM
//     capacity Cd/psi in reuse-distance units: PHitDRAM = F(Cd/psi).
//   * Promotions follow the windowed-counter Markov chain: a page re-enters
//     a window at counter 1 and must survive in-window across T consecutive
//     same-type hits (survival q from the conditional gap CDF against the
//     window's reach W / nu, nu = NVM front-entry rate). The expected hits
//     per promotion is 1 + (1-q^T)/((1-q) q^T), and its reciprocal is the
//     per-NVM-hit promotion probability.
//   * These couple (psi needs PMigD, q needs PHitNVM). The PHitDRAM map is
//     monotone decreasing (more DRAM hits -> faster front turnover -> shorter
//     bursts), so the estimator bisects it to its unique root inside a damped
//     outer loop on PMigD — deterministic, typically < 40 outer rounds.
// Window sizes use util::snap_ceil_fraction, the same snapping as
// core::CountedLruQueue, so analytic and simulated windows cannot drift.
//
// Supported configurations: the two-LRU scheme with static thresholds, plus
// the dram-only / nvm-only single-tier baselines (degenerate Cd or Cn = 0).
// The adaptive-threshold controller is out of scope — callers (the runner
// prescreen) must fall back to simulation for adaptive cells.
#pragma once

#include <cstdint>

#include "core/migration_config.hpp"
#include "model/endurance_model.hpp"
#include "model/perf_model.hpp"
#include "model/power_model.hpp"
#include "model/probabilities.hpp"
#include "trace/reuse_distance.hpp"

namespace hymem::model {

/// Everything the estimator needs besides the workload profile. Frame counts
/// are raw (the sim::ExperimentConfig -> AnalyticConfig mapping lives in
/// sim/experiment to keep model below sim in the layering).
struct AnalyticConfig {
  std::uint64_t dram_frames = 0;  ///< 0 = nvm-only baseline.
  std::uint64_t nvm_frames = 0;   ///< 0 = dram-only baseline.
  core::MigrationConfig migration;
  ModelParams params;
  /// ROI wall time of the measured window (Eq. 3 static proration and the
  /// lifetime write rate).
  double duration_s = 0.0;
};

/// The estimator's prediction for one (profile, config) cell: the same
/// quantities a simulation run reports, derived in closed form.
struct AnalyticEstimate {
  TableIProbabilities probs;
  AmatBreakdown amat;
  PowerBreakdown power;
  /// PHitDRAM + PHitNVM.
  double hit_ratio = 0.0;
  /// Physical NVM writes per CPU request (endurance-model accounting).
  double nvm_writes_per_access = 0.0;
  /// Estimated NVM lifetime under perfect wear leveling; +inf when the
  /// config writes nothing to NVM.
  double lifetime_s = 0.0;

  // Diagnostics (DESIGN.md §13; also what the mutation check biases).
  double effective_dram_frames = 0.0;  ///< Cd / psi after convergence.
  double promotion_rate_read = 0.0;    ///< Per NVM read hit.
  double promotion_rate_write = 0.0;   ///< Per NVM write hit.
  int iterations = 0;                  ///< Fixed-point rounds to converge.
};

/// Testing-only bias knobs, mirroring check::DiffSpec::oracle_threshold_bias:
/// the parity suite biases one analytic term and asserts the cross-validation
/// harness catches it. All-zero (the default) is the production path.
struct AnalyticBias {
  /// Added to both promotion thresholds inside the Markov term only.
  std::int64_t threshold_bias = 0;
  /// Multiplies the effective DRAM capacity (1.0 = no bias).
  double dram_capacity_scale = 1.0;
};

/// Runs the estimator for one cell. `profile` must cover the measured window
/// the prediction is compared against (observe warmup, reset_stats, observe
/// measured — the analyzer mirror of the engine's accounting reset).
AnalyticEstimate estimate(const trace::ReuseProfile& profile,
                          const AnalyticConfig& config,
                          const AnalyticBias& bias = {});

}  // namespace hymem::model
