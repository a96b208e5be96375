// Benchmark harness: runs one named workload on one thread and prints its
// metrics as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
//   perfbench_harness --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                     --expected FILE --out-dir DIR
//   perfbench_harness --emit-expected --out-dir DIR
//       (expectation rows for every workload at the committed seeds, to
//       stdout)
//
// --trace 0 prints the end-to-end metrics: the timed operation repeats until
// --seconds have passed and host rates are medians over its repetitions;
// set-up repeats kSetupRepeats times and setup_s is the median. --trace 1
// prints the per-layer metrics: each repetition runs the operation untraced,
// then traced (a span around every call into the program), then re-runs each
// cell piece by piece; the spans go to DIR/spans-<workload>-<seed>.json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupRepeats = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string expected;
  std::string out_dir;
  bool emit_expected = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_harness: " << problem << "\n"
            << "usage: perfbench_harness --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] --expected FILE --out-dir DIR\n"
            << "       perfbench_harness --emit-expected --out-dir DIR\n"
            << "workloads:";
  for (const WorkloadSpec& spec : workloads()) std::cerr << ' ' << spec.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-expected") {
      args.emit_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--expected") {
        args.expected = value;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.out_dir.empty()) usage("--out-dir is required");
  if (args.emit_expected) return args;
  if (find_workload(args.workload) == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.expected.empty()) usage("--expected is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

// Peak resident set of this process in MB (1e6 bytes). VmHWM follows
// reset_peak_rss(); ru_maxrss is the fallback when /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

// Ordered metric set printed in the result line.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      problems_.push_back("metric " + name + " is not finite");
      value = 0;
    }
    rows_.push_back({name, value, unit});
  }
  const std::vector<std::string>& problems() const { return problems_; }

  std::string json() const {
    std::ostringstream out;
    out << '{';
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
      out << (i ? ", " : "") << '"' << rows_[i].name << "\": {\"value\": "
          << buf << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    out << '}';
    return out.str();
  }

  void print_table(std::ostream& out) const {
    char buf[160];
    for (const Row& row : rows_) {
      std::snprintf(buf, sizeof buf, "  %-34s %16.6g %s\n", row.name.c_str(),
                    row.value, row.unit.c_str());
      out << buf;
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
  std::vector<std::string> problems_;
};

// Tally of operations and of everything that makes a run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  bool exact_skipped_noted = false;

  void check(const WorkloadSpec& spec, std::uint64_t seed,
             const std::vector<CellResult>& cells,
             const std::vector<Expectation>& expected) {
    const CheckResult check = check_cells(spec, seed, cells, expected);
    attempted += cells.size();
    failed += check.failed_cells;
    problems.insert(problems.end(), check.messages.begin(),
                    check.messages.end());
    if (!check.exact && !exact_skipped_noted) {
      exact_skipped_noted = true;
      std::cout << "check: seed " << seed
                << " has no committed expectation; exact check skipped, "
                   "invariants checked\n";
    }
  }

  // The same cells must come out of every repetition, traced or not.
  void expect_same(const std::vector<CellResult>& a,
                   const std::vector<CellResult>& b, const std::string& what) {
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      if (a[i].ok && b[i].ok && !same_stats(a[i], b[i])) {
        ++failed;
        problems.push_back(what + ": cell " + std::to_string(i) + " (" +
                           a[i].profile + "/" + a[i].policy +
                           ") differs between repetitions");
      }
    }
  }

  int finish(const Metrics& metrics, const Inputs& inputs) {
    problems.insert(problems.end(), inputs.violations.begin(),
                    inputs.violations.end());
    problems.insert(problems.end(), metrics.problems().begin(),
                    metrics.problems().end());
    // Repetitions repeat a problem; print each once.
    const std::set<std::string> distinct(problems.begin(), problems.end());
    for (const std::string& p : distinct) std::cout << "FAIL: " << p << "\n";
    const bool correct = failed == 0 && problems.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return 0;
  }
};

std::string capture_path(const Args& args) {
  return args.out_dir + "/capture-seed" + std::to_string(args.seed) + ".trc";
}

std::string export_path(const Args& args) {
  return args.out_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + ".csv";
}

// Sets up kSetupRepeats times, each anew, and keeps the last inputs.
Inputs set_up_repeatedly(const WorkloadSpec& spec, const Args& args,
                         Tracer& tracer, std::vector<double>& setup_times) {
  Inputs inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    inputs = Inputs();  // Release the previous inputs before generating.
    inputs = tracer.span("setup", [&] {
      return set_up(spec, args.seed, capture_path(args), tracer);
    });
    setup_times.push_back(inputs.setup_s);
  }
  return inputs;
}

int measure(const WorkloadSpec& spec, const Args& args,
            const std::vector<Expectation>& expected) {
  Tracer off(false);
  Outcome outcome;
  std::vector<double> setup_times;
  const Inputs inputs = set_up_repeatedly(spec, args, off, setup_times);

  std::vector<double> rates;
  std::vector<CellResult> first;
  const Clock::time_point start = Clock::now();
  do {
    const OpResult op = run_op(spec, inputs, export_path(args), off,
                               static_cast<long>(outcome.attempted));
    outcome.check(spec, args.seed, op.cells, expected);
    if (first.empty()) {
      first = op.cells;
    } else {
      outcome.expect_same(first, op.cells, "untraced run");
    }
    rates.push_back(static_cast<double>(op.measured_accesses) / op.seconds);
  } while (seconds_since(start) < args.seconds);

  Metrics metrics;
  metrics.add("accesses_per_s", median(rates), "1/s");
  metrics.add("setup_s", median(setup_times), "s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  const SimTotals sim = sim_totals(first);
  metrics.add("sim_amat_ns", sim.amat_ns, "ns");
  metrics.add("sim_appr_nj", sim.appr_nj, "nJ");
  metrics.add("sim_nvm_writes_per_kacc", sim.nvm_writes_per_kacc, "1/kacc");
  std::cout << spec.name << " seed " << args.seed << ": " << rates.size()
            << " repetitions of the timed operation, " << setup_times.size()
            << " set-ups\n";
  metrics.print_table(std::cout);
  return outcome.finish(metrics, inputs);
}

int trace_run(const WorkloadSpec& spec, const Args& args,
              const std::vector<Expectation>& expected) {
  Tracer tracer(true);
  Tracer off(false);
  Outcome outcome;

  std::vector<double> setup_times;
  const std::size_t setup_mark = tracer.mark();
  const Inputs inputs = set_up_repeatedly(spec, args, tracer, setup_times);
  // Per set-up sums of the synth and trace spans.
  std::vector<double> generate_s, save_s;
  for (std::size_t i = setup_mark; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    if (s.name == "setup") {
      generate_s.push_back(0);
      save_s.push_back(0);
    } else if (s.name == "synth.generate") {
      generate_s.back() += s.duration_s();
    } else if (s.name == "trace.save") {
      save_s.back() += s.duration_s();
    }
  }
  const double setup_rss = peak_rss_mb();
  reset_peak_rss();

  // Untraced reference for the tracing overhead, then the traced operation,
  // then the piecewise re-run of every cell.
  std::vector<std::map<std::string, double>> reps;  // Named values per rep.
  std::vector<CellResult> reference;
  std::pair<std::size_t, std::size_t> last_rep_spans;
  const Clock::time_point start = Clock::now();
  do {
    const OpResult untraced = run_op(spec, inputs, export_path(args), off,
                                     static_cast<long>(outcome.attempted));
    outcome.check(spec, args.seed, untraced.cells, expected);
    if (reference.empty()) reference = untraced.cells;
    outcome.expect_same(reference, untraced.cells, "untraced run");

    const std::size_t op_from = tracer.mark();
    const long first_op = static_cast<long>(outcome.attempted);
    const OpResult traced = tracer.span("op", [&] {
      return run_op(spec, inputs, export_path(args), tracer, first_op,
                    /*keep_loaded=*/true);
    });
    const std::size_t op_to = tracer.mark();
    outcome.check(spec, args.seed, traced.cells, expected);
    outcome.expect_same(reference, traced.cells, "traced run");

    // Capture: the same call with the timeline off, the baseline for both
    // obs.timeline_overhead and the piecewise residual.
    double call_s = 0;
    for (const CellResult& c : traced.cells) call_s += c.call_s;
    double timeline_overhead = 0;
    if (spec.capture) {
      hymem::sim::ExperimentConfig config =
          cell_config(spec, spec.policies.front());
      config.timeline_epoch = 0;
      tracer.set_op(static_cast<long>(outcome.attempted));
      CellResult plain = tracer.span("sim.run_experiment.no_timeline", [&] {
        return run_cell(config, nullptr, *traced.loaded,
                        inputs.profiles.front().roi_seconds, off);
      });
      tracer.set_op(-1);
      plain.profile = inputs.profiles.front().name;
      outcome.check(spec, args.seed, {plain}, expected);
      timeline_overhead = (call_s - plain.call_s) / plain.call_s;
      call_s = plain.call_s;
    }

    const std::size_t piece_from = tracer.mark();
    std::vector<CellResult> pieces;
    std::map<std::string, std::pair<double, double>> by_policy;  // acc, s
    {
      std::size_t i = 0;
      for (const Inputs::Profile& profile : inputs.profiles) {
        for (const std::string& policy : spec.policies) {
          tracer.set_op(first_op + static_cast<long>(i));
          const std::size_t from = tracer.mark();
          CellResult cell =
              spec.capture
                  ? run_piecewise(cell_config(spec, policy), nullptr,
                                  *traced.loaded, profile.roi_seconds, tracer)
                  : run_piecewise(cell_config(spec, policy), &profile.warmup,
                                  profile.measured, profile.roi_seconds,
                                  tracer);
          tracer.set_op(-1);
          cell.profile = profile.name;
          auto& [acc, secs] = by_policy[policy];
          acc += static_cast<double>(cell.counts.accesses);
          secs += tracer.sum("policy.replay", from, tracer.mark());
          pieces.push_back(std::move(cell));
          ++i;
        }
      }
    }
    const std::size_t piece_to = tracer.mark();
    // Each piecewise re-run counts as an operation: it must not throw, and
    // it must reproduce the call it decomposes.
    outcome.check(spec, args.seed, pieces, expected);
    outcome.expect_same(reference, pieces, "piecewise re-run");

    std::map<std::string, double> v;
    v["trace.load_s"] = tracer.sum("trace.load", op_from, op_to);
    v["sim.run_experiment_s"] =
        tracer.sum("sim.run_experiment", op_from, op_to);
    v["obs.export_s"] = tracer.sum("obs.export", op_from, op_to);
    v["sim.export_s"] =
        tracer.sum("sim.export", op_from, op_to) + v["obs.export_s"];
    v["op_s"] = traced.seconds;
    v["bench.tracing_overhead_s"] = traced.seconds - untraced.seconds;
    v["obs.timeline_overhead"] = timeline_overhead;
    double pieces_s = 0;
    for (const char* name :
         {"trace.characterize", "sim.size_memory", "policy.construct",
          "trace.decode", "policy.warmup", "os.reset_accounting",
          "policy.replay", "model.evaluate"}) {
      const double s = tracer.sum(name, piece_from, piece_to);
      v[std::string(name) + "_s"] = s;
      pieces_s += s;
    }
    v["sim.residual_s"] = call_s - pieces_s;
    double measured = 0;
    for (const auto& [policy, acc_s] : by_policy) {
      measured += acc_s.first;
      v["policy.accesses_per_s." + policy] = acc_s.first / acc_s.second;
      v["policy.ns_per_access." + policy] = 1e9 * acc_s.second / acc_s.first;
    }
    v["policy.ns_per_access"] = 1e9 * v["policy.replay_s"] / measured;
    reps.push_back(std::move(v));
    last_rep_spans = {op_from, piece_to};
  } while (seconds_since(start) < args.seconds);

  const auto med = [&](const std::string& key) {
    std::vector<double> values;
    for (const auto& rep : reps) {
      const auto it = rep.find(key);
      if (it != rep.end()) values.push_back(it->second);
    }
    return median(values);
  };
  std::uint64_t faults = 0, migrations = 0, dram_hits = 0, accesses = 0;
  for (const CellResult& c : reference) {
    faults += c.counts.page_faults;
    migrations += c.counts.migrations();
    dram_hits += c.counts.dram_hits();
    accesses += c.counts.accesses;
  }
  const double kacc = static_cast<double>(accesses) / 1000.0;
  const double capture_mb = static_cast<double>(inputs.capture_bytes) / 1e6;
  const double gen_s = median(generate_s);

  Metrics metrics;
  metrics.add("synth.generate_s", gen_s, "s");
  metrics.add("synth.ns_per_access",
              1e9 * gen_s / static_cast<double>(inputs.generated_accesses),
              "ns");
  metrics.add("trace.save_mb_per_s",
              spec.capture ? capture_mb / median(save_s) : 0, "MB/s");
  metrics.add("trace.load_mb_per_s",
              spec.capture ? capture_mb / med("trace.load_s") : 0, "MB/s");
  for (const char* name :
       {"trace.characterize_s", "trace.decode_s", "policy.construct_s",
        "policy.warmup_s", "policy.replay_s"}) {
    metrics.add(name, med(name), "s");
  }
  metrics.add("policy.ns_per_access", med("policy.ns_per_access"), "ns");
  for (const char* policy : {"two-lru", "clock-dwf", "dram-only", "nvm-only"}) {
    metrics.add(std::string("policy.accesses_per_s.") + policy,
                med(std::string("policy.accesses_per_s.") + policy), "1/s");
  }
  metrics.add("os.faults_per_kacc", static_cast<double>(faults) / kacc,
              "1/kacc");
  metrics.add("os.migrations_per_kacc", static_cast<double>(migrations) / kacc,
              "1/kacc");
  metrics.add("os.dram_hit_ratio",
              static_cast<double>(dram_hits) / static_cast<double>(accesses),
              "ratio");
  metrics.add("model.evaluate_s", med("model.evaluate_s"), "s");
  metrics.add("obs.timeline_overhead", med("obs.timeline_overhead"), "ratio");
  metrics.add("obs.epochs",
              spec.capture ? static_cast<double>(reference.front().epochs) : 0,
              "count");
  metrics.add("sim.run_experiment_s", med("sim.run_experiment_s"), "s");
  metrics.add("sim.residual_s", med("sim.residual_s"), "s");
  metrics.add("sim.export_s", med("sim.export_s"), "s");
  metrics.add("bench.tracing_overhead_s", med("bench.tracing_overhead_s"),
              "s");
  metrics.add("host.setup_rss_mb", setup_rss, "MB");
  metrics.add("host.simulate_rss_mb", peak_rss_mb(), "MB");

  // The per-layer table of the last repetition: every span name with its
  // total and self time, as a share of the traced operation. sim.piecewise
  // and its children re-run the same cells after the operation.
  const auto [from, to] = last_rep_spans;
  const double op_s = reps.back().at("op_s");
  std::cout << spec.name << " seed " << args.seed << ": " << reps.size()
            << " traced repetitions; the last one by span, as shares of its "
               "traced operation ("
            << op_s << " s; sim.piecewise re-runs the same cells after it):\n";
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-32s %6s %10s %10s %7s\n", "span",
                "count", "total_s", "self_s", "share");
  std::cout << buf;
  for (const auto& [name, t] : tracer.totals(from, to)) {
    std::snprintf(buf, sizeof buf, "  %-32s %6zu %10.4f %10.4f %6.1f%%\n",
                  name.c_str(), t.count, t.total_s, t.self_s,
                  100.0 * t.total_s / op_s);
    std::cout << buf;
  }
  std::snprintf(buf, sizeof buf,
                "  %-32s %6s %10.4f %10s %6.1f%%\n  %-32s %6s %10.4f %10s "
                "%6.1f%%\n",
                "sim.residual (call - pieces)", "", med("sim.residual_s"), "",
                100.0 * med("sim.residual_s") / med("op_s"),
                "tracing overhead (median)", "",
                med("bench.tracing_overhead_s"), "",
                100.0 * med("bench.tracing_overhead_s") / med("op_s"));
  std::cout << buf << "per-layer metrics (medians over repetitions):\n";
  metrics.print_table(std::cout);
  if (spec.capture) {
    const std::pair<const char*, double> rows[] = {
        {"trace.save_s", median(save_s)},
        {"trace.load_s", med("trace.load_s")},
        {"obs.export_s", med("obs.export_s")}};
    for (const auto& [name, value] : rows) {
      std::snprintf(buf, sizeof buf, "  %-34s %16.6g s\n", name, value);
      std::cout << buf;
    }
  }
  for (const char* policy : {"two-lru", "clock-dwf", "dram-only", "nvm-only"}) {
    const std::string key = std::string("policy.ns_per_access.") + policy;
    if (reps.back().count(key) == 0) continue;
    std::snprintf(buf, sizeof buf, "  %-34s %16.6g ns\n", key.c_str(),
                  med(key));
    std::cout << buf;
  }

  const std::string span_path = args.out_dir + "/spans-" + spec.name +
                                "-seed" + std::to_string(args.seed) + ".json";
  std::ofstream spans(span_path);
  tracer.write_json(spans);
  std::cout << "spans: " << span_path << " (" << tracer.spans().size()
            << ")\n";
  return outcome.finish(metrics, inputs);
}

int emit_expected(const std::string& dir) {
  std::cout << "# Committed simulated statistics, one row per run_experiment "
               "cell plus a '*' row of\n# workload totals. Columns: workload "
               "seed cell profile policy accesses\n# dram_read_hits "
               "dram_write_hits nvm_read_hits nvm_write_hits page_faults\n# "
               "fills_to_dram fills_to_nvm migrations_to_dram "
               "migrations_to_nvm dirty_evictions\n# page_factor amat_ns "
               "appr_nj nvm_writes_per_kacc\n";
  Tracer off(false);
  for (const WorkloadSpec& spec : workloads()) {
    for (std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
      const Inputs inputs = set_up(spec, seed, dir + "/capture.trc", off);
      const OpResult op = run_op(spec, inputs, dir + "/export.csv", off, 0);
      write_expectations(expectations_for(spec, seed, op.cells), std::cout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.emit_expected) return emit_expected(args.out_dir);
    const WorkloadSpec& spec = *find_workload(args.workload);
    const std::vector<Expectation> expected =
        read_expectations(args.expected);
    return args.trace ? trace_run(spec, args, expected)
                      : measure(spec, args, expected);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
