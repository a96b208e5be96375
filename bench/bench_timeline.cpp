// Epoch time-series harness: the paper's metrics as a timeline instead of
// end-of-run aggregates. Runs the selected workloads × policies grid with
// obs::EpochSampler attached and emits the spliced timeline CSV on stdout
// (or per-job JSON with --json) — watch the windowed counters fill, the
// thresholds bite, and per-epoch AMAT converge to the steady state.
//
//   $ bench_timeline [--workload canneal] [--policy two-lru]
//                    [--epoch 1024] [--scale 64] [--seed 42] [--jobs N]
//                    [--json]
//
// --workload / --policy take one name; omit them for a small default grid
// (canneal, streamcluster × two-lru, clock-dwf). An unknown name exits 2
// with one stderr line before any job runs. Stdout is byte-identical for
// every --jobs value.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/timeline_io.hpp"
#include "sim/policy_factory.hpp"
#include "util/cli.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  auto ctx = bench::parse_args(argc, argv, 64, bench::SharedFlags::kTimeline,
                               {"json", "workload", "policy"});
  const CliArgs args(argc, argv);
  const bool json = bench::bool_flag(args, "json", false);

  std::vector<synth::WorkloadProfile> workloads;
  const std::string workload = args.get("workload");
  if (workload.empty()) {
    workloads = {synth::parsec_profile("canneal"),
                 synth::parsec_profile("streamcluster")};
  } else {
    try {
      workloads = {synth::parsec_profile(workload)};
    } catch (const std::out_of_range&) {
      std::cerr << args.program() << ": unknown workload: " << workload
                << "\n";
      return 2;
    }
  }
  const std::string policy = args.get("policy");
  if (!policy.empty()) {
    try {
      sim::check_policy_name(policy);
    } catch (const std::invalid_argument& e) {
      std::cerr << args.program() << ": " << e.what() << "\n";
      return 2;
    }
  }
  const std::vector<std::string> policies =
      policy.empty() ? std::vector<std::string>{"two-lru", "clock-dwf"}
                     : std::vector<std::string>{policy};

  runner::SweepSpec spec;
  spec.workloads = std::move(workloads);
  spec.policies = policies;
  spec.scale = ctx.scale;
  spec.base_seed = ctx.seed;
  spec.seed_mode = runner::SeedMode::kShared;
  // This harness *is* the timeline: sampling is always on, regardless of
  // whether --timeline was also passed.
  spec.variants.emplace_back();
  spec.variants.back().config.timeline_epoch = ctx.timeline_epoch;

  runner::SweepOptions options;
  options.jobs = ctx.jobs;
  options.progress = runner::stderr_progress();
  const auto sweep = runner::run_sweep(spec, options);

  if (json) {
    std::cout << "[";
    bool first = true;
    for (const auto& job : sweep.jobs) {
      if (!job.ok || job.result.timeline.empty()) continue;
      if (!first) std::cout << ",";
      first = false;
      std::cout << "\n";
      obs::write_timeline_json(job.result.timeline, std::cout,
                               job.job.workload.name, job.job.policy);
    }
    std::cout << "]\n";
  } else {
    sweep.write_timeline_csv(std::cout);
  }
  // --timeline PATH additionally writes the spliced CSV to a file (same
  // bytes as the default stdout form).
  bench::maybe_write_timeline(sweep, ctx);

  std::cerr << "timeline: " << sweep.jobs.size() << " jobs, epoch "
            << ctx.timeline_epoch << " accesses, " << sweep.workers
            << " worker(s), " << sweep.wall_s << " s\n";
  sweep.write_failures(std::cerr);
  return sweep.failures() == 0 ? 0 : 1;
}
