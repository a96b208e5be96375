// Parallel sweep runner: declarative (workload × policy × config-variant)
// job grids executed across a thread pool, with deterministic per-job
// seeding, per-job fault isolation, and structured (CSV/JSON) export.
//
// Determinism contract: the grid expands in a fixed row-major order
// (workload-major, then policy, then variant); each job's seed is a pure
// function of (base_seed, job index); each job owns its generator and VMM;
// and results land in pre-allocated slots indexed by job. Consequently a
// sweep's exported CSV/JSON is byte-identical for any worker count,
// including the serial (--jobs 1) path.
//
// Fault isolation: a throwing job (bad policy name, config validation, …)
// is captured into its own result slot as an error string; the remaining
// jobs run to completion and the failure summary reports the casualties.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "runner/progress.hpp"
#include "sim/experiment.hpp"
#include "synth/workload_profile.hpp"

namespace hymem::runner {

/// One named ExperimentConfig override (the third grid dimension). The
/// config's `policy` field is overwritten by the grid's policy dimension.
struct ConfigVariant {
  std::string label;  ///< Shows up in exports; "" for the default config.
  sim::ExperimentConfig config;
};

/// How per-job seeds derive from the spec's base_seed.
enum class SeedMode {
  /// seed_i = splitmix64 stream output i of base_seed: every job draws an
  /// independent trace (statistical sweeps; the ISSUE's default).
  kPerJob,
  /// Every job uses base_seed verbatim: all policies replay the *same*
  /// trace per workload — the paper's fair-comparison setup, and exactly
  /// what the serial harnesses did before the runner existed.
  kShared,
};

/// Declarative job grid. Jobs = workloads × policies × variants.
struct SweepSpec {
  std::vector<synth::WorkloadProfile> workloads;
  std::vector<std::string> policies;
  /// Config overrides; empty means one default-constructed variant.
  std::vector<ConfigVariant> variants;
  std::uint64_t scale = 64;       ///< Table III divisor (see bench_common).
  std::uint64_t base_seed = 42;
  SeedMode seed_mode = SeedMode::kShared;
};

/// One expanded grid cell.
struct SweepJob {
  std::size_t index = 0;  ///< Position in grid order (and result order).
  synth::WorkloadProfile workload;
  std::string policy;
  std::string variant;
  sim::ExperimentConfig config;  ///< Variant config with `policy` applied.
  std::uint64_t seed = 0;
};

/// The deterministic per-job seed: output `index` of the splitmix64 stream
/// seeded at `base_seed`. Pure function — independent of execution order.
std::uint64_t job_seed(std::uint64_t base_seed, std::size_t index);

/// Expands the grid in deterministic row-major order
/// (workload-major, then policy, then variant).
std::vector<SweepJob> expand_grid(const SweepSpec& spec);

/// One job's outcome: a RunResult, a captured error, or — under the analytic
/// prescreen — a deliberate skip (ranked out of the refine set, never run).
struct JobResult {
  SweepJob job;
  bool ok = false;
  bool skipped = false;   ///< Prescreened out; not a failure.
  std::string error;      ///< Exception text when !ok && !skipped.
  sim::RunResult result;  ///< Valid only when ok.
  double wall_ms = 0.0;   ///< This job's own wall time.
};

/// Thread-safe-by-construction result store: slots are pre-allocated in
/// grid order and each worker writes only its own slot.
struct SweepResults {
  std::vector<JobResult> jobs;  ///< Grid order, one slot per job.
  double wall_s = 0.0;          ///< Whole-sweep wall time.
  unsigned workers = 1;         ///< Worker threads actually used.

  /// Jobs that ran and failed. Prescreen-skipped jobs are not failures.
  std::size_t failures() const;
  /// Jobs deliberately skipped by the analytic prescreen.
  std::size_t skipped() const;
  /// The successful RunResults in grid order.
  std::vector<sim::RunResult> results() const;

  /// CSV: job identification (workload, policy, variant, seed, status,
  /// error, wall_ms omitted for byte-determinism) followed by the
  /// sim::csv_header() metric columns (blank on failed/skipped jobs).
  /// Status is "ok", "failed" or "skipped".
  void write_csv(std::ostream& out) const;
  /// JSON array of {workload, policy, variant, seed, status[, error]
  /// [, result]} objects; `result` nests sim::write_json's object.
  void write_json(std::ostream& out) const;
  /// Splices every successful job's epoch timeline into one CSV: the job
  /// identity columns (workload, policy, variant, seed) followed by
  /// obs::timeline_csv_header(). Jobs appear in grid order, epochs in run
  /// order, so the output is byte-identical for any worker count. Jobs that
  /// ran without sampling (timeline_epoch == 0) or failed contribute no
  /// rows. `header` = false leaves out the header row, so a caller can
  /// append another sweep's rows to the same file. Returns the number of
  /// epoch rows written.
  std::size_t write_timeline_csv(std::ostream& out, bool header = true) const;
  /// Human-readable failure summary; writes nothing when all jobs passed.
  void write_failures(std::ostream& out) const;
};

struct SweepOptions {
  /// Worker threads; 0 = ThreadPool::default_threads(). 1 runs the jobs
  /// inline on the calling thread (the serial reference path).
  unsigned jobs = 0;
  /// Invoked after every job completion (from worker threads; must be
  /// thread-safe). See stderr_progress().
  ProgressTracker::Callback progress;
};

/// Expands and executes the grid. Never throws for job-level failures.
SweepResults run_sweep(const SweepSpec& spec, const SweepOptions& options = {});

/// The executor behind run_sweep, shared with the analytic prescreen: runs
/// only the jobs whose grid indices appear in `indices` (each at most once;
/// untouched slots keep their prior state). Slots must already carry their
/// SweepJob. Serial when the effective worker count is 1, byte-identical
/// results for any worker count.
void execute_jobs(SweepResults& results, std::uint64_t scale,
                  const std::vector<std::size_t>& indices,
                  const SweepOptions& options);

}  // namespace hymem::runner
