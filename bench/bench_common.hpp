// Shared plumbing for the bench harnesses.
//
// A harness accepts only the flags it reads: one of the three shared sets
// below (SharedFlags) plus its own, which its header comment lists
// (bench_paper's --csv, bench_matrix's --json, ...).
//   --scale N   divide each workload's Table III access counts (and working
//               set, keeping all ratios) by N. Default set per harness (64
//               for most): the full suite runs in seconds with the same
//               shapes as scale 1.
//   --seed S    generator seed (default 42).
//   --jobs N    worker threads for the harnesses that fan cells out
//               (default: the hardware concurrency). 1 = serial reference
//               path. Results are byte-identical for every N.
//   --timeline PATH
//               sample an epoch time-series during every measured run and
//               write the spliced per-job timeline CSV to PATH (harnesses
//               whose cells run through run_grid or the sweep runner, and
//               bench_tenants; see src/obs/). Off by default: the replay
//               loop stays uninstrumented.
//   --epoch N   timeline epoch length in accesses (default 1024; only
//               meaningful with --timeline).
//
// Any other flag is rejected through util::cli's check, and the harness
// then lists the flags it accepts, so a typo ("--job 4") or a flag the
// harness would ignore fails loudly instead of silently running the
// default configuration. So are malformed values ("--scale abc",
// "--scale 0"): one stderr line naming the flag and the value, then exit
// code 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "sim/reporter.hpp"
#include "synth/workload_profile.hpp"
#include "util/cli.hpp"

namespace hymem::bench {

struct BenchContext {
  std::uint64_t scale = 64;
  std::uint64_t seed = 42;
  unsigned jobs = 1;  ///< Sweep worker threads.
  std::string timeline;  ///< --timeline PATH; empty = sampling off.
  std::uint64_t timeline_epoch = 1024;  ///< --epoch N.
};

/// The shared flags with one-line help, in the order SharedFlags counts
/// them.
inline const std::vector<std::pair<std::string, std::string>>&
shared_flag_help() {
  static const std::vector<std::pair<std::string, std::string>> help = {
      {"scale", "divide Table III access counts by N (default harness-set)"},
      {"seed", "generator seed (default 42)"},
      {"jobs", "sweep worker threads (default: hardware concurrency)"},
      {"timeline", "write the spliced epoch time-series CSV to PATH"},
      {"epoch", "timeline epoch length in accesses (default 1024)"},
  };
  return help;
}

/// The shared flags a harness reads: the first N entries of
/// shared_flag_help().
enum class SharedFlags : std::size_t {
  kTrace = 2,     ///< --scale and --seed: it generates its own traces.
  kJobs = 3,      ///< ... and --jobs: it fans its cells out over workers.
  kTimeline = 5,  ///< ... and --timeline, --epoch: it samples a timeline.
};

/// Exits with the accepted flag list when argv contains a flag outside the
/// `shared` set plus `extra_flags` (harness-specific additions like --json).
inline void reject_unknown_flags(const CliArgs& args, SharedFlags shared,
                                 const std::vector<std::string>& extra_flags) {
  const std::span accepted(shared_flag_help().data(),
                           static_cast<std::size_t>(shared));
  std::vector<std::string> known = extra_flags;
  for (const auto& [flag, help] : accepted) known.push_back(flag);
  try {
    args.reject_unknown(known);
  } catch (const std::invalid_argument& e) {
    std::cerr << args.program() << ": " << e.what() << "\n\nAccepted flags:\n";
    for (const auto& [flag, help] : accepted) {
      std::cerr << "  --" << flag << "  " << help << "\n";
    }
    for (const std::string& flag : extra_flags) {
      std::cerr << "  --" << flag << "  (harness-specific)\n";
    }
    std::exit(2);
  }
}

/// Exits with code 2 after one stderr line naming the flag, what it takes
/// and the value it got (the CliArgs getter's message).
[[noreturn]] inline void reject_flag_value(const CliArgs& args,
                                           const std::invalid_argument& e) {
  std::cerr << args.program() << ": " << e.what() << "\n";
  std::exit(2);
}

/// CliArgs::get_uint, exiting through reject_flag_value on a malformed
/// value.
inline std::uint64_t uint_flag(const CliArgs& args, const std::string& name,
                               std::uint64_t def, std::uint64_t min = 0) {
  try {
    return args.get_uint(name, def, min);
  } catch (const std::invalid_argument& e) {
    reject_flag_value(args, e);
  }
}

/// CliArgs::get_bool, exiting through reject_flag_value on a malformed
/// value.
inline bool bool_flag(const CliArgs& args, const std::string& name, bool def) {
  try {
    return args.get_bool(name, def);
  } catch (const std::invalid_argument& e) {
    reject_flag_value(args, e);
  }
}

/// Parses the `shared` flags plus `extra_flags` (read by the harness
/// itself); a flag it does not read keeps its default.
inline BenchContext parse_args(
    int argc, char** argv, std::uint64_t default_scale, SharedFlags shared,
    const std::vector<std::string>& extra_flags = {}) {
  const CliArgs args(argc, argv);
  reject_unknown_flags(args, shared, extra_flags);
  BenchContext ctx;
  ctx.scale = uint_flag(args, "scale", default_scale, /*min=*/1);
  ctx.seed = uint_flag(args, "seed", 42);
  ctx.jobs = static_cast<unsigned>(
      uint_flag(args, "jobs", runner::ThreadPool::default_threads()));
  ctx.timeline = args.get("timeline");
  ctx.timeline_epoch = uint_flag(args, "epoch", 1024);
  return ctx;
}

/// Turns on epoch sampling in every grid cell when the harness was run with
/// --timeline. Materializes the implicit default variant so the override has
/// a config to land on.
inline void apply_overrides(runner::SweepSpec& spec, const BenchContext& ctx) {
  if (spec.variants.empty()) spec.variants.emplace_back();
  if (ctx.timeline.empty()) return;
  for (auto& variant : spec.variants) {
    variant.config.timeline_epoch = ctx.timeline_epoch;
  }
}

/// Writes the sweep's spliced timeline CSV to ctx.timeline (no-op when the
/// flag was absent). The harness's first sweep creates the file with its
/// header; every later sweep appends its rows, so a harness that runs
/// several grids keeps all of them, in run order. Row count goes to
/// stderr, keeping stdout deterministic.
inline void maybe_write_timeline(const runner::SweepResults& sweep,
                                 const BenchContext& ctx) {
  if (ctx.timeline.empty()) return;
  static bool started = false;  // one timeline file per harness run
  std::ofstream out(ctx.timeline, started ? std::ios::binary | std::ios::app
                                          : std::ios::binary);
  if (!out) {
    std::cerr << "cannot open --timeline path: " << ctx.timeline << "\n";
    return;
  }
  const std::size_t rows = sweep.write_timeline_csv(out, /*header=*/!started);
  started = true;
  std::cerr << "timeline: " << rows << " epoch rows (epoch "
            << ctx.timeline_epoch << ") -> " << ctx.timeline << "\n";
}

inline void print_header(const std::string& title, const BenchContext& ctx) {
  std::cout << "### " << title << "\n";
  std::cout << "(scale 1/" << ctx.scale << ", seed " << ctx.seed
            << "; workload shapes are scale-stable)\n\n";
  sim::print_memory_characteristics(std::cout, mem::dram_table4(),
                                    mem::pcm_table4());
  std::cout << '\n';
}

/// Runs a (workload × policy × variant) grid through the sweep runner on
/// `ctx.jobs` workers, with progress on stderr. SeedMode::kShared replays
/// the same per-workload trace under every policy/variant — identical
/// numbers to the historical serial loops, just fanned out.
inline runner::SweepResults run_grid(
    std::vector<synth::WorkloadProfile> workloads,
    std::vector<std::string> policies, const BenchContext& ctx,
    std::vector<runner::ConfigVariant> variants = {}) {
  runner::SweepSpec spec;
  spec.workloads = std::move(workloads);
  spec.policies = std::move(policies);
  spec.variants = std::move(variants);
  spec.scale = ctx.scale;
  spec.base_seed = ctx.seed;
  spec.seed_mode = runner::SeedMode::kShared;
  apply_overrides(spec, ctx);
  runner::SweepOptions options;
  options.jobs = ctx.jobs;
  options.progress = runner::stderr_progress();
  auto sweep = runner::run_sweep(spec, options);
  sweep.write_failures(std::cerr);
  maybe_write_timeline(sweep, ctx);
  return sweep;
}

}  // namespace hymem::bench
