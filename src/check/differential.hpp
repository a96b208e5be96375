// Differential harness: the optimized sim stack vs the reference oracle.
//
// run_differential() replays one trace through both implementations in
// lockstep and diffs, per access, the placement decision (hit tier /
// fault / promotion, the demoted and evicted victims, rate-limiter
// throttling) and the running event counters; periodically and at the end
// it deep-diffs the complete state — both LRU orders, every windowed
// counter and window membership, open-promotion scores — and finally
// cross-checks the raw event counts and the Eq. 1/2/3 + endurance model
// outputs against the oracle's independent recomputation.
//
// run_fuzz_case() wraps it for fuzzing: derive a FuzzCase from a seed,
// diff it, and on divergence shrink the trace to a minimal repro and
// format a reproduction report.
//
// run_clock_dwf_differential() and run_clock_dwf_fuzz_case() do the same
// for CLOCK-DWF against check/clock_dwf_reference: per-access decisions
// (hit or fault tier, forced promotion, demoted and evicted victims, dirty
// evictions), both clock rings in order from the hand with their reference
// bits, and the end-of-run ledgers and model outputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "check/fuzzer.hpp"
#include "check/reference_model.hpp"
#include "core/migration_config.hpp"
#include "trace/trace.hpp"

namespace hymem::check {

/// What to replay and how strictly to watch it.
struct DiffSpec {
  std::size_t dram_frames = 0;
  std::size_t nvm_frames = 0;
  core::MigrationConfig migration;
  /// Run the full structural invariant audit (check_invariants) after
  /// every access. Catches corruption at the access that caused it instead
  /// of at the next observable divergence.
  bool invariants_every_access = true;
  /// Deep state diff (queue orders, counters, windows) every N accesses;
  /// 0 = only at the end. The per-access decision diff always runs.
  std::size_t deep_diff_stride = 64;
  /// MUTATION-CHECK KNOB — leave at 0 for real checking. A non-zero value
  /// biases the *oracle's* promotion thresholds by that amount, turning the
  /// oracle into a deliberately off-by-one specification. The harness must
  /// then report a divergence; tests use this to prove the diff actually
  /// bites (and the shrinker to prove minimal repros come out).
  std::int64_t oracle_threshold_bias = 0;

  static DiffSpec from_fuzz(const FuzzCase& fc) {
    DiffSpec spec;
    spec.dram_frames = fc.dram_frames;
    spec.nvm_frames = fc.nvm_frames;
    spec.migration = fc.migration;
    return spec;
  }
};

/// First point where the two implementations disagreed.
struct Divergence {
  static constexpr std::size_t kEndOfRun = ~static_cast<std::size_t>(0);
  /// Index of the diverging access, or kEndOfRun for end-state-only
  /// divergence (counters/metrics).
  std::size_t access_index = kEndOfRun;
  std::string what;
};

struct DiffResult {
  std::uint64_t accesses = 0;
  std::optional<Divergence> divergence;

  bool ok() const { return !divergence.has_value(); }
};

/// Replays `trace` (page-granular, default page size) through both stacks.
DiffResult run_differential(const trace::Trace& trace, const DiffSpec& spec);

/// One fuzz iteration: derive, diff, shrink on failure.
struct FuzzReport {
  FuzzCase fuzz;
  DiffResult result;
  /// Greedily minimized repro; empty when the case passed.
  trace::Trace minimal;
  /// Human-readable reproduction report (seed line, divergence, minimal
  /// trace); empty when the case passed.
  std::string summary;

  bool ok() const { return result.ok(); }
};

FuzzReport run_fuzz_case(std::uint64_t seed, std::size_t accesses,
                         std::int64_t oracle_threshold_bias = 0);

/// What to replay through ClockDwfPolicy and its oracle.
struct DwfDiffSpec {
  std::size_t dram_frames = 0;
  std::size_t nvm_frames = 0;
  /// Deep ring diff (order from the hand, reference bits) every N accesses;
  /// 0 = only at the end. The per-access decision diff always runs.
  std::size_t deep_diff_stride = 16;
  /// MUTATION-CHECK KNOB — leave false for real checking. When set, the
  /// oracle's DRAM clock also takes reference bits from reads (see
  /// ClockDwfReference); the harness must then report a divergence.
  bool oracle_dram_read_ref = false;

  static DwfDiffSpec from_fuzz(const FuzzCase& fc) {
    DwfDiffSpec spec;
    spec.dram_frames = fc.dram_frames;
    spec.nvm_frames = fc.nvm_frames;
    return spec;
  }
};

/// Replays `trace` (page-granular, default page size) through ClockDwfPolicy
/// and ClockDwfReference in lockstep, auditing the VMM after every access.
DiffResult run_clock_dwf_differential(const trace::Trace& trace,
                                      const DwfDiffSpec& spec);

/// One CLOCK-DWF fuzz iteration: the memory shape and trace of
/// make_fuzz_case(seed, accesses) (its two-LRU tunables are unused), diffed
/// and, on divergence, shrunk.
FuzzReport run_clock_dwf_fuzz_case(std::uint64_t seed, std::size_t accesses,
                                   bool oracle_dram_read_ref = false);

}  // namespace hymem::check
