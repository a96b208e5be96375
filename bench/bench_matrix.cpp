// The grand matrix: every hybrid policy on every PARSEC workload, one row
// per (workload, policy), with the three paper metrics side by side.
// Runs as a parallel sweep (`--jobs N`, default hardware concurrency);
// row order and values are identical for any job count.
// `--json` dumps the full result set for external tooling.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/results_io.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, 64,
                                     bench::SharedFlags::kTimeline, {"json"});
  const CliArgs args(argc, argv);
  const bool json = bench::bool_flag(args, "json", false);
  bench::print_header("Policy x workload matrix", ctx);

  const std::vector<std::string> policies = {
      "dram-only", "nvm-only", "static-partition", "dram-cache",
      "rank-mq",   "clock-dwf", "two-lru",          "two-lru-adaptive"};
  const auto profiles = synth::parsec_profiles();
  const auto sweep = bench::run_grid(
      {profiles.begin(), profiles.end()}, policies, ctx);

  TextTable table({"workload", "policy", "APPR (nJ)", "AMAT (ns)",
                   "mig/kacc", "NVM writes/kacc"});
  for (const auto& job : sweep.jobs) {
    if (!job.ok) continue;
    const auto& r = job.result;
    const auto accesses = static_cast<double>(r.accesses);
    table.add_row(
        {r.workload, job.job.policy, TextTable::fmt(r.appr().total(), 2),
         TextTable::fmt(r.amat().total(), 1),
         TextTable::fmt(1000.0 * static_cast<double>(r.counts.migrations()) /
                            accesses,
                        2),
         TextTable::fmt(1000.0 *
                            static_cast<double>(r.nvm_writes().total()) /
                            accesses,
                        1)});
  }
  if (json) {
    sim::write_json(sweep.results(), std::cout);
  } else {
    std::cout << table.to_string();
  }
  return sweep.failures() == 0 ? 0 : 1;
}
