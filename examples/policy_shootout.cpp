// Policy shootout: run every hybrid-memory policy in the suite on one
// workload and compare power, performance, endurance and migration traffic
// side by side — the "which policy should I use for my workload?" view a
// downstream user wants first. The per-policy runs fan out across worker
// threads; the table is identical for any `--jobs` value.
//
//   $ policy_shootout [--workload bodytrack] [--scale 64] [--jobs N]
#include <exception>
#include <iostream>
#include <vector>

#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "synth/workload_profile.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hymem;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.reject_unknown({"workload", "scale", "jobs"});
  const std::string workload = args.get("workload", "bodytrack");
  const std::uint64_t scale = args.get_uint("scale", 64, 1);
  const auto jobs = static_cast<unsigned>(
      args.get_uint("jobs", runner::ThreadPool::default_threads()));

  runner::SweepSpec spec;
  spec.workloads = {synth::parsec_profile(workload)};
  std::cout << "Policy comparison on " << workload << " (scale 1/" << scale
            << ", memory = 75% of footprint, DRAM = 10% of memory)\n\n";
  spec.policies = {"dram-only", "nvm-only", "static-partition", "dram-cache",
                   "rank-mq",   "clock-dwf", "two-lru", "two-lru-adaptive"};
  spec.scale = scale;
  // kShared: every policy replays the identical trace — a fair comparison.
  spec.seed_mode = runner::SeedMode::kShared;
  runner::SweepOptions options;
  options.jobs = jobs;
  const auto sweep = runner::run_sweep(spec, options);
  sweep.write_failures(std::cerr);

  TextTable table({"policy", "APPR (nJ)", "AMAT (ns)", "hit%", "mig/kacc",
                   "NVM writes", "dirty evictions"});
  for (const auto& job : sweep.jobs) {
    if (!job.ok) continue;
    const auto& r = job.result;
    const double hit_pct = 100.0 * static_cast<double>(r.counts.hits()) /
                           static_cast<double>(r.accesses);
    const double mig_per_kacc =
        1000.0 * static_cast<double>(r.counts.migrations()) /
        static_cast<double>(r.accesses);
    table.add_row({job.job.policy, TextTable::fmt(r.appr().total(), 2),
                   TextTable::fmt(r.amat().total(), 1),
                   TextTable::fmt(hit_pct, 3),
                   TextTable::fmt(mig_per_kacc, 2),
                   std::to_string(r.nvm_writes().total()),
                   std::to_string(r.counts.dirty_evictions)});
  }
  std::cout << table.to_string();
  std::cout << "\nReading guide: 'two-lru' should roughly halve APPR vs"
               " 'dram-only'\nwhile keeping AMAT near 'dram-only' and NVM"
               " writes far below 'nvm-only'.\n";
  return sweep.failures() == 0 ? 0 : 1;
}

}  // namespace

// Bad input (an unknown flag or --workload, a malformed number) ends the
// run with one line on stderr and exit code 2, not an uncaught exception.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "policy_shootout: " << e.what() << "\n";
    return 2;
  }
}
