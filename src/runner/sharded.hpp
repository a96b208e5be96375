// Partitioned execution of one experiment (ExperimentConfig::partitions >
// 1): the run's address space is hash-partitioned across K independent
// policy instances, each owning a proportional slice of the DRAM/NVM
// budget, replayed in parallel on the shared thread pool, and merged into
// one RunResult in shard-index order.
//
// Determinism contract: the partition function is a pure function of the
// page ID (hash_page_id(page) % K), sub-traces preserve trace order, every
// shard owns its VMM/policy, and the merge folds shard results in index
// order 0..K-1 — so output is byte-identical across repeated runs and
// worker counts *for a fixed K*. Results are NOT identical across different
// K: each shard's LRU only sees its own pages and budget slice, so
// shard-local recency approximates the global policy (see DESIGN.md §12).
//
// This lives in runner/ (not sim/) because it owns the fan-out: the
// dependency order puts the thread pool above the engine.
#pragma once

#include <cstdint>

#include "sim/experiment.hpp"
#include "synth/workload_profile.hpp"
#include "trace/trace.hpp"

namespace hymem::runner {

/// Two-trace partitioned run: memory is sized from `warmup`'s footprint,
/// each shard warms on its slice of `warmup`, then replays its slice of
/// `measured` with counting on. Requires config.partitions > 1 and a
/// non-sampled policy; throws std::invalid_argument otherwise.
sim::RunResult run_sharded_experiment(const trace::Trace& warmup,
                                      const trace::Trace& measured,
                                      double duration_s,
                                      const sim::ExperimentConfig& config);

/// Generates the workload's synthetic traces (like sim::run_workload) and
/// runs the partitioned experiment on them.
sim::RunResult run_sharded_workload(const synth::WorkloadProfile& profile,
                                    std::uint64_t scale,
                                    const sim::ExperimentConfig& config,
                                    std::uint64_t seed = 42);

/// Routing helper for the sweep runner and harnesses: dispatches to
/// run_sharded_workload when config.partitions > 1, and to
/// sim::run_workload otherwise.
sim::RunResult run_workload_dispatch(const synth::WorkloadProfile& profile,
                                     std::uint64_t scale,
                                     const sim::ExperimentConfig& config,
                                     std::uint64_t seed = 42);

}  // namespace hymem::runner
