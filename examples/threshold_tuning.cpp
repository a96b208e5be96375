// Threshold tuning: sweep the migration thresholds on a workload and watch
// the trade-off the paper's Section IV describes ("the values of
// read_threshold and write_threshold determine how aggressive we plan to
// prevent the migrations with low probability of being useful"), then let
// the adaptive controller (the paper's future-work extension) find its own
// operating point.
//
//   $ threshold_tuning [--workload raytrace] [--scale 128]
#include <exception>
#include <iostream>

#include "core/migration_scheme.hpp"
#include "sim/experiment.hpp"
#include "synth/workload_profile.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hymem;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.reject_unknown({"workload", "scale"});
  const std::string workload = args.get("workload", "raytrace");
  const std::uint64_t scale = args.get_uint("scale", 128, 1);
  const auto& profile = synth::parsec_profile(workload);

  std::cout << "Threshold sweep on " << workload << "\n\n";
  TextTable table({"read_thr", "write_thr", "promotions", "APPR (nJ)",
                   "AMAT (ns)"});
  double best_power = 1e300;
  std::uint64_t best_thr = 0;
  for (std::uint64_t thr : {1ULL, 2ULL, 4ULL, 8ULL, 16ULL, 32ULL, 128ULL}) {
    sim::ExperimentConfig config;
    config.policy = "two-lru";
    config.migration.read_threshold = thr;
    config.migration.write_threshold = 2 * thr;
    const auto r = sim::run_workload(profile, scale, config);
    table.add_row({std::to_string(thr), std::to_string(2 * thr),
                   std::to_string(r.counts.migrations_to_dram),
                   TextTable::fmt(r.appr().total(), 2),
                   TextTable::fmt(r.amat().total(), 1)});
    if (r.appr().total() < best_power) {
      best_power = r.appr().total();
      best_thr = thr;
    }
  }
  std::cout << table.to_string();
  std::cout << "\nbest fixed read threshold for " << workload << ": "
            << best_thr << " (APPR " << TextTable::fmt(best_power, 2)
            << " nJ)\n\n";

  // Adaptive controller run: report where it settles.
  sim::ExperimentConfig adaptive;
  adaptive.policy = "two-lru-adaptive";
  const auto r = sim::run_workload(profile, scale, adaptive);
  std::cout << "adaptive controller: APPR " << TextTable::fmt(r.appr().total(), 2)
            << " nJ, AMAT " << TextTable::fmt(r.amat().total(), 1) << " ns\n"
            << "(break-even for Table IV technologies: "
            << core::AdaptiveThresholdController::break_even(
                   mem::dram_table4(), mem::pcm_table4(), 64)
            << " DRAM hits amortize one promotion round trip)\n";
  return 0;
}

}  // namespace

// Bad input (an unknown flag or --workload, a malformed number) ends the
// run with one line on stderr and exit code 2, not an uncaught exception.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "threshold_tuning: " << e.what() << "\n";
    return 2;
  }
}
