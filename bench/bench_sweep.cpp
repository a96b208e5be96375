// The full Table III evaluation grid (every PARSEC workload × every hybrid
// policy) through the parallel sweep runner — the harness that demonstrates
// the runner's contract end to end:
//
//   * CSV (default) or --json results on stdout, byte-identical for every
//     --jobs value (run with --jobs 1 and --jobs $(nproc) and diff);
//   * progress, wall-clock timing and the failure summary on stderr, so
//     captured output stays machine-readable;
//   * per-job fault isolation: a failing cell reports in its own row and
//     the exit code, never by killing the sweep.
//
// With `--prescreen analytic`, the grid is first ranked in-process by the
// closed-form estimator (src/model/analytic) and only the best
// `--refine-top P` analytic-supported cells — plus every cell the estimator
// cannot model, e.g. two-lru-adaptive — are simulated; the rest export as
// status "skipped" with blank metrics. Ranking happens before any job is
// dispatched, so the output stays byte-identical for every --jobs value.
//
//   $ bench_sweep [--scale 64] [--seed 42] [--jobs N] [--json]
//                 [--timeline PATH [--epoch N]]
//                 [--prescreen analytic [--refine-top P]]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "runner/prescreen.hpp"
#include "util/cli.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx =
      bench::parse_args(argc, argv, 64, bench::SharedFlags::kTimeline,
                        {"json", "prescreen", "refine-top"});
  const CliArgs args(argc, argv);
  const bool json = bench::bool_flag(args, "json", false);
  const std::string prescreen = args.get("prescreen");
  if (!prescreen.empty() && prescreen != "analytic") {
    std::cerr << args.program()
              << ": --prescreen only supports 'analytic', got '" << prescreen
              << "'\n";
    return 2;
  }
  const std::size_t refine_top =
      static_cast<std::size_t>(bench::uint_flag(args, "refine-top", 0));

  runner::SweepSpec spec;
  const auto profiles = synth::parsec_profiles();
  spec.workloads.assign(profiles.begin(), profiles.end());
  spec.policies = {"dram-only", "nvm-only", "static-partition", "dram-cache",
                   "rank-mq",   "clock-dwf", "two-lru", "two-lru-adaptive"};
  spec.scale = ctx.scale;
  spec.base_seed = ctx.seed;
  // kShared: each workload's trace is generated from the same seed under
  // every policy, reproducing the paper's fair-comparison methodology.
  spec.seed_mode = runner::SeedMode::kShared;
  bench::apply_overrides(spec, ctx);

  runner::SweepOptions options;
  options.jobs = ctx.jobs;
  options.progress = runner::stderr_progress();

  runner::SweepResults sweep;
  if (!prescreen.empty()) {
    runner::PrescreenOptions prescreen_options;
    prescreen_options.refine_top = refine_top;
    prescreen_options.run = options;
    auto screened = runner::run_prescreened_sweep(spec, prescreen_options);
    std::cerr << "prescreen: " << screened.analytic_evals
              << " analytic estimates ("
              << static_cast<std::uint64_t>(
                     screened.analytic_evals_per_second())
              << "/s), simulated " << screened.simulated << "/"
              << screened.sweep.jobs.size() << " cells\n";
    sweep = std::move(screened.sweep);
  } else {
    sweep = runner::run_sweep(spec, options);
  }

  if (json) {
    sweep.write_json(std::cout);
  } else {
    sweep.write_csv(std::cout);
  }
  bench::maybe_write_timeline(sweep, ctx);

  double busy_ms = 0;
  for (const auto& job : sweep.jobs) busy_ms += job.wall_ms;
  std::cerr << "sweep: " << sweep.jobs.size() << " jobs on " << sweep.workers
            << " worker(s) in " << sweep.wall_s << " s (cpu-busy "
            << busy_ms / 1000.0 << " s, parallel efficiency "
            << (sweep.wall_s > 0
                    ? busy_ms / 1000.0 / sweep.wall_s /
                          static_cast<double>(sweep.workers) * 100.0
                    : 0.0)
            << "%)\n";
  sweep.write_failures(std::cerr);
  return sweep.failures() == 0 ? 0 : 1;
}
