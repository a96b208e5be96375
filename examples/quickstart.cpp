// Quickstart: simulate one workload on a hybrid DRAM-NVM memory with the
// paper's proposed two-LRU migration scheme and print the Eq. 1/2 metrics.
//
//   $ quickstart [--workload facesim] [--policy two-lru] [--scale 64]
//
// This is the smallest end-to-end use of the public API:
//   profile -> synthetic trace -> sized hybrid memory -> policy -> models.
#include <exception>
#include <iostream>

#include "sim/experiment.hpp"
#include "sim/policy_factory.hpp"
#include "synth/workload_profile.hpp"
#include "util/cli.hpp"

using namespace hymem;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.reject_unknown({"workload", "policy", "scale"});
  const std::string workload = args.get("workload", "facesim");
  const std::string policy = args.get("policy", "two-lru");
  const std::uint64_t scale = args.get_uint("scale", 64, 1);

  // 1. Pick a workload (Table III calibrated) and an experiment config
  //    (the paper's sizing: memory = 75% of footprint, DRAM = 10% of it).
  const auto& profile = synth::parsec_profile(workload);
  sim::ExperimentConfig config;
  config.policy = policy;

  // 2. Run: generates the trace, sizes the memory, warms up, measures.
  const sim::RunResult result = sim::run_workload(profile, scale, config);

  // 3. Read out the models.
  const auto amat = result.amat();
  const auto power = result.appr();
  const auto writes = result.nvm_writes();

  std::cout << "workload : " << result.workload << " (x1/" << scale << ")\n"
            << "policy   : " << result.policy << "\n"
            << "accesses : " << result.accesses << "\n"
            << "faults   : " << result.counts.page_faults << "\n"
            << "migrations " << result.counts.migrations_to_dram << " to DRAM, "
            << result.counts.migrations_to_nvm << " to NVM\n\n"
            << "AMAT (Eq.1): " << amat.total() << " ns"
            << "  [hits " << amat.hit_ns << ", faults " << amat.fault_ns
            << ", migrations " << amat.migration_ns << "]\n"
            << "APPR (Eq.2+3): " << power.total() << " nJ/request"
            << "  [static " << power.static_nj << ", hits " << power.hit_nj
            << ", fills " << power.fault_fill_nj << ", migrations "
            << power.migration_nj << "]\n"
            << "NVM writes: " << writes.total() << "  [demand "
            << writes.demand_writes << ", fills " << writes.fault_fill_writes
            << ", migrations " << writes.migration_writes << "]\n";
  return 0;
}

}  // namespace

// Bad input (an unknown flag, --workload or --policy, a malformed number)
// ends the run with one line on stderr and exit code 2, not an uncaught
// exception.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 2;
  }
}
