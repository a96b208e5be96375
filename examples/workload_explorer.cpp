// Workload explorer: characterize a workload the way Section III does —
// Table III columns, per-page popularity skew, reuse-distance profile and
// the LRU miss-ratio curve that determines how the paper's 75%/10% memory
// sizing will behave.
//
//   $ workload_explorer [--workload canneal] [--scale 256] [--seed 42]
#include <exception>
#include <iostream>

#include "synth/generator.hpp"
#include "synth/workload_profile.hpp"
#include "trace/phase_detect.hpp"
#include "trace/reuse_distance.hpp"
#include "trace/trace_stats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hymem;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.reject_unknown({"workload", "scale", "seed"});
  const std::string workload = args.get("workload", "canneal");
  const std::uint64_t scale = args.get_uint("scale", 256, 1);
  const auto profile = synth::parsec_profile(workload).scaled(scale);

  synth::GeneratorOptions options;
  options.seed = args.get_uint("seed", 42);
  const auto trace = synth::generate(profile, options);

  // --- Table III style characterization -----------------------------------
  trace::TraceCharacterizer characterizer(options.page_size);
  characterizer.observe(trace);
  const auto stats = characterizer.stats();
  std::cout << "== " << workload << " (x1/" << scale << ") ==\n"
            << "working set : " << stats.working_set_kb() << " KB ("
            << stats.distinct_pages << " pages)\n"
            << "accesses    : " << stats.accesses << "  (" << stats.reads
            << " reads / " << stats.writes << " writes, "
            << TextTable::fmt(100 * stats.write_fraction(), 1) << "% writes)\n"
            << "write-dominant pages: " << stats.write_dominant_pages << "\n\n";

  // --- Popularity skew ------------------------------------------------------
  const auto ranked = characterizer.ranked_pages();
  std::uint64_t cum = 0;
  std::size_t pages_for_half = 0;
  for (const auto& [page, prof] : ranked) {
    cum += prof.total();
    ++pages_for_half;
    if (cum * 2 >= stats.accesses) break;
  }
  std::cout << "hottest " << pages_for_half << " pages ("
            << TextTable::fmt(100.0 * static_cast<double>(pages_for_half) /
                                  static_cast<double>(stats.distinct_pages),
                              1)
            << "% of footprint) absorb 50% of all accesses\n\n";

  // --- Phase structure -------------------------------------------------------
  trace::PhaseDetectorConfig phase_config;
  phase_config.window_accesses = std::max<std::uint64_t>(1024, trace.size() / 64);
  phase_config.similarity_threshold = 0.6;
  trace::PhaseDetector phases(options.page_size, phase_config);
  phases.observe(trace);
  std::cout << "phase structure: " << phases.phase_count()
            << " phase(s) at window " << phase_config.window_accesses
            << " (working-set signature similarity threshold 0.6)\n\n";

  // --- Reuse distances and the miss-ratio curve ----------------------------
  trace::ReuseDistanceAnalyzer rd(options.page_size);
  rd.observe(trace);
  std::cout << "reuse-distance histogram (log2 buckets, finite reuses):\n"
            << rd.histogram().to_string() << '\n';

  TextTable curve({"capacity (pages)", "capacity/footprint", "LRU hit %"});
  for (double fraction : {0.05, 0.10, 0.25, 0.50, 0.75, 1.00}) {
    const auto capacity = static_cast<std::uint64_t>(
        fraction * static_cast<double>(stats.distinct_pages));
    if (capacity == 0) continue;
    curve.add_row({std::to_string(capacity), TextTable::fmt(fraction, 2),
                   TextTable::fmt(100.0 * rd.lru_hit_ratio(capacity), 2)});
  }
  std::cout << curve.to_string();
  std::cout << "\nThe paper sizes memory at 0.75 of the footprint: the gap"
               "\nbetween the 0.75 row and 100% is the steady-state fault"
               " rate\nany policy must pay.\n";
  return 0;
}

}  // namespace

// Bad input (an unknown flag or --workload, a malformed number) ends the
// run with one line on stderr and exit code 2, not an uncaught exception.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "workload_explorer: " << e.what() << "\n";
    return 2;
  }
}
