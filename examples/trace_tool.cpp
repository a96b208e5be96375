// trace_tool: command-line utility for working with hymem trace files —
// the adoption path for users who have their own captures (e.g. from a
// real COTSon/valgrind/pin run) and want to feed them to the simulator.
//
//   trace_tool gen --workload ferret --scale 64 --out ferret.trc
//   trace_tool info ferret.trc
//   trace_tool convert ferret.trc ferret.txt
//   trace_tool downsample ferret.trc small.trc --stride 16
//   trace_tool sim ferret.trc --policy two-lru [--duration 0.5]
//
// A missing operand prints the usage, and an unknown flag, a bad workload
// or policy name or a malformed number prints one line; each exits with
// code 2. A file that cannot be opened or parsed exits with code 1.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/results_io.hpp"
#include "synth/generator.hpp"
#include "synth/workload_profile.hpp"
#include "trace/phase_detect.hpp"
#include "trace/reuse_distance.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"
#include "trace/transform.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hymem;

namespace {

int usage() {
  std::cerr << "usage: trace_tool <gen|info|convert|downsample|sim> ...\n"
               "  gen        --workload NAME [--scale N] [--seed S] --out F\n"
               "  info       FILE\n"
               "  convert    IN OUT        (.trc = binary, else text)\n"
               "  downsample IN OUT --stride N\n"
               "  sim        FILE [--policy NAME] [--duration SECONDS] [--json]\n";
  return 2;
}

int cmd_gen(const CliArgs& args) {
  const auto profile =
      synth::parsec_profile(args.get("workload", "ferret"))
          .scaled(args.get_uint("scale", 64, 1));
  synth::GeneratorOptions options;
  options.seed = args.get_uint("seed", 42);
  const auto trace = synth::generate(profile, options);
  const std::string out = args.get("out", profile.name + ".trc");
  trace::save(trace, out);
  std::cout << "wrote " << trace.size() << " accesses to " << out << "\n";
  return 0;
}

int cmd_info(const CliArgs& args) {
  const auto trace = trace::load(args.positional().at(1));
  const auto stats = trace::characterize(trace, 4096);
  std::cout << "name         : " << trace.name() << "\n"
            << "accesses     : " << stats.accesses << " (" << stats.reads
            << " R / " << stats.writes << " W)\n"
            << "footprint    : " << stats.distinct_pages << " pages ("
            << stats.working_set_kb() << " KB)\n"
            << "write-dominant pages: " << stats.write_dominant_pages << "\n";
  trace::ReuseDistanceAnalyzer rd(4096);
  rd.observe(trace);
  const auto p75 = static_cast<std::uint64_t>(
      0.75 * static_cast<double>(stats.distinct_pages));
  if (p75 > 0) {
    std::cout << "LRU hit ratio at 75% of footprint: "
              << TextTable::fmt(100.0 * rd.lru_hit_ratio(p75), 3) << "%\n";
  }
  trace::PhaseDetector phases(4096);
  phases.observe(trace);
  std::cout << "phases       : " << phases.phase_count() << "\n";
  return 0;
}

int cmd_convert(const CliArgs& args) {
  const auto trace = trace::load(args.positional().at(1));
  trace::save(trace, args.positional().at(2));
  std::cout << "converted " << trace.size() << " accesses\n";
  return 0;
}

int cmd_downsample(const CliArgs& args) {
  const auto trace = trace::load(args.positional().at(1));
  const auto out = trace::downsample(trace, args.get_uint("stride", 16, 1));
  trace::save(out, args.positional().at(2));
  std::cout << trace.size() << " -> " << out.size() << " accesses\n";
  return 0;
}

int cmd_sim(const CliArgs& args) {
  const auto trace = trace::load(args.positional().at(1));
  sim::ExperimentConfig config;
  config.policy = args.get("policy", "two-lru");
  const double duration = args.get_double("duration", 1.0);
  const auto result = sim::run_experiment(trace, duration, config);
  if (args.get_bool("json", false)) {
    sim::write_json(result, std::cout);
    std::cout << "\n";
    return 0;
  }
  std::cout << "policy " << result.policy << " on " << result.accesses
            << " accesses:\n"
            << "  AMAT " << TextTable::fmt(result.amat().total(), 1)
            << " ns, APPR " << TextTable::fmt(result.appr().total(), 2)
            << " nJ, migrations " << result.counts.migrations()
            << ", NVM writes " << result.nvm_writes().total() << "\n";
  return 0;
}

/// A subcommand: how many operands follow its name, and the flags it reads.
struct Command {
  const char* name;
  std::size_t operands;
  std::vector<std::string> flags;
  int (*run)(const CliArgs&);
};

const Command kCommands[] = {
    {"gen", 0, {"workload", "scale", "seed", "out"}, cmd_gen},
    {"info", 1, {}, cmd_info},
    {"convert", 2, {}, cmd_convert},
    {"downsample", 2, {"stride"}, cmd_downsample},
    {"sim", 1, {"policy", "duration", "json"}, cmd_sim},
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.positional().empty()) return usage();
  for (const Command& command : kCommands) {
    if (args.positional().front() != command.name) continue;
    if (args.positional().size() != command.operands + 1) return usage();
    try {
      args.reject_unknown(command.flags);
      return command.run(args);
    } catch (const std::exception& e) {
      std::cerr << "trace_tool: " << e.what() << "\n";
      // A bad flag, policy name (invalid_argument) or workload name
      // (out_of_range) is a usage error; a file that cannot be opened or
      // parsed is not.
      const bool bad_argument =
          dynamic_cast<const std::invalid_argument*>(&e) != nullptr ||
          dynamic_cast<const std::out_of_range*>(&e) != nullptr;
      return bad_argument ? 2 : 1;
    }
  }
  return usage();
}
