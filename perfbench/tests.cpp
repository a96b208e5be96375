// The benchmark's own tests: its cells equal the library's reference entry
// points (fidelity), the committed expectations reproduce, and the output
// check reports a perturbed expectation or a throwing cell as failed
// operations.
//
//   perfbench_tests --expected perfbench/expected.txt --out-dir DIR
//
// (python3 perfbench/run.py --test builds and runs it.) Exits non-zero when
// any check fails.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "runner/sweep.hpp"
#include "synth/generator.hpp"
#include "synth/workload_profile.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace perfbench;
namespace sim = hymem::sim;

int g_checks = 0;
int g_failures = 0;

#define EXPECT(cond)                                                       \
  do {                                                                     \
    ++g_checks;                                                            \
    if (!(cond)) {                                                         \
      ++g_failures;                                                        \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, __LINE__, \
                   #cond);                                                 \
    }                                                                      \
  } while (0)

struct Env {
  std::string out_dir;
  std::vector<Expectation> expected;
};

CellResult cell_of(const sim::RunResult& result) {
  CellResult cell;
  cell.policy = result.policy;
  cell.ok = true;
  evaluate(result, cell);
  return cell;
}

struct Ran {
  Inputs inputs;
  OpResult op;
};

Ran run(const Env& env, const WorkloadSpec& spec, std::uint64_t seed) {
  Tracer off(false);
  Ran ran;
  ran.inputs = set_up(spec, seed, env.out_dir + "/test-capture.trc", off);
  ran.op = run_op(spec, ran.inputs, env.out_dir + "/test-export.csv", off, 0);
  return ran;
}

// Committed seeds reproduce exactly; other seeds fall back to invariants.
void test_expectations_reproduce(const Env& env, const WorkloadSpec& spec,
                                 const Ran& ran, std::uint64_t seed) {
  EXPECT(ran.inputs.violations.empty());
  const CheckResult check =
      check_cells(spec, seed, ran.op.cells, env.expected);
  EXPECT(check.exact);
  EXPECT(check.failed_cells == 0);
  EXPECT(check.totals_ok);
  for (const std::string& m : check.messages) {
    std::fprintf(stderr, "  %s\n", m.c_str());
  }
  const CheckResult other = check_cells(spec, seed + 1000, ran.op.cells,
                                        env.expected);
  EXPECT(!other.exact);
  EXPECT(other.failed_cells == 0);
}

// A perturbed committed value is reported as exactly one failed operation.
void test_perturbed_expectation_fails(const Env& env, const WorkloadSpec& spec,
                                      const Ran& ran) {
  const auto perturbed = [&](std::size_t cell, auto&& mutate) {
    std::vector<Expectation> rows = env.expected;
    for (Expectation& row : rows) {
      if (row.workload == spec.name && row.seed == kDefaultSeed &&
          row.cell == cell) {
        mutate(row);
      }
    }
    return check_cells(spec, kDefaultSeed, ran.op.cells, rows);
  };
  const std::size_t last = ran.op.cells.size() - 1;
  EXPECT(perturbed(0, [](Expectation& r) { ++r.counts.page_faults; })
             .failed_cells == 1);
  EXPECT(perturbed(last, [](Expectation& r) {
           r.counts.migrations_to_nvm += 1;
         }).failed_cells == 1);
  EXPECT(perturbed(0, [](Expectation& r) { r.amat_ns *= 1 + 1e-6; })
             .failed_cells == 1);
  EXPECT(perturbed(last, [](Expectation& r) { r.appr_nj *= 1 - 1e-6; })
             .failed_cells == 1);
  const CheckResult totals = perturbed(ran.op.cells.size(), [](Expectation& r) {
    r.nvm_writes_per_kacc *= 1 + 1e-6;
  });
  EXPECT(totals.failed_cells == 0);
  EXPECT(!totals.totals_ok);
}

// A cell that throws is a failed operation, with or without expectations.
void test_throw_is_failure(const Env& env, const WorkloadSpec& spec,
                           const Ran& ran) {
  Tracer off(false);
  const Inputs::Profile& p = ran.inputs.profiles.front();
  std::vector<CellResult> cells = ran.op.cells;
  cells[0] = run_cell(cell_config(spec, "no-such-policy"), &p.warmup,
                      p.measured, p.roi_seconds, off);
  cells[0].profile = p.name;
  EXPECT(!cells[0].ok);
  EXPECT(check_cells(spec, kDefaultSeed, cells, env.expected).failed_cells ==
         1);
  EXPECT(check_cells(spec, 7, cells, env.expected).failed_cells == 1);
}

// The single-run workloads equal sim::run_workload for their seed.
void test_single_run_matches_run_workload(const WorkloadSpec& spec,
                                          const Ran& ran, std::uint64_t seed) {
  const sim::RunResult reference = sim::run_workload(
      hymem::synth::parsec_profile(spec.profiles.front()), spec.scale,
      cell_config(spec, spec.policies.front()), seed);
  EXPECT(ran.op.cells.size() == 1);
  EXPECT(same_stats(ran.op.cells.front(), cell_of(reference)));
}

// The capture replay (trace::save then trace::load) equals run_experiment
// on the in-memory trace.
void test_capture_matches_in_memory(const WorkloadSpec& spec, const Ran& ran,
                                    std::uint64_t seed) {
  const auto scaled =
      hymem::synth::parsec_profile(spec.profiles.front()).scaled(spec.scale);
  hymem::synth::GeneratorOptions options;
  options.seed = seed;
  const trace::Trace in_memory = hymem::synth::generate(scaled, options);
  const sim::RunResult reference = sim::run_experiment(
      in_memory, scaled.roi_seconds, cell_config(spec, spec.policies.front()));
  EXPECT(same_stats(ran.op.cells.front(), cell_of(reference)));
  EXPECT(ran.op.cells.front().epochs == reference.timeline.epochs.size());
  EXPECT(ran.op.cells.front().epochs > 0);
}

// fig-grid equals runner::run_sweep with kShared seeding, cell for cell.
void test_grid_matches_sweep(const WorkloadSpec& spec, const Ran& ran,
                             std::uint64_t seed) {
  hymem::runner::SweepSpec sweep;
  for (const std::string& name : spec.profiles) {
    sweep.workloads.push_back(hymem::synth::parsec_profile(name));
  }
  sweep.policies = spec.policies;
  sweep.scale = spec.scale;
  sweep.base_seed = seed;
  sweep.seed_mode = hymem::runner::SeedMode::kShared;
  hymem::runner::SweepOptions options;
  options.jobs = 1;
  const hymem::runner::SweepResults results =
      hymem::runner::run_sweep(sweep, options);
  EXPECT(results.failures() == 0);
  EXPECT(results.jobs.size() == ran.op.cells.size());
  std::size_t equal = 0;
  for (std::size_t i = 0; i < results.jobs.size(); ++i) {
    const auto& job = results.jobs[i];
    const CellResult& cell = ran.op.cells[i];
    if (job.ok && job.job.workload.name == cell.profile &&
        job.job.policy == cell.policy &&
        same_stats(cell, cell_of(job.result))) {
      ++equal;
    }
  }
  std::fprintf(stderr, "  fig-grid vs run_sweep: %zu/%zu cells equal\n",
               equal, results.jobs.size());
  EXPECT(equal == results.jobs.size());
}

// The piecewise re-run reproduces the call it decomposes.
void test_piecewise_matches_call(const WorkloadSpec& spec, const Ran& ran) {
  Tracer tracer(true);
  const Inputs::Profile& p = ran.inputs.profiles.front();
  const trace::Trace loaded =
      spec.capture ? trace::load(ran.inputs.capture_path) : trace::Trace();
  const trace::Trace* warmup = spec.capture ? nullptr : &p.warmup;
  const trace::Trace& measured = spec.capture ? loaded : p.measured;
  const CellResult piecewise =
      run_piecewise(cell_config(spec, spec.policies.front()), warmup,
                    measured, p.roi_seconds, tracer);
  EXPECT(same_stats(piecewise, ran.op.cells.front()));
  const auto totals = tracer.totals(0, tracer.mark());
  for (const char* piece :
       {"trace.characterize", "sim.size_memory", "policy.construct",
        "trace.decode", "policy.warmup", "os.reset_accounting",
        "policy.replay", "model.evaluate"}) {
    EXPECT(totals.count(piece) == 1);
  }
  const auto& root = totals.at("sim.piecewise");
  double pieces = 0;
  for (const auto& [name, t] : totals) {
    if (name != "sim.piecewise") pieces += t.total_s;
  }
  EXPECT(root.self_s > -1e-9);
  EXPECT(std::abs(root.total_s - pieces - root.self_s) < 1e-9);
}

void test_tracer_self_time() {
  Tracer tracer(true);
  tracer.span("outer", [&] {
    tracer.span("inner", [] {
      volatile double x = 0;
      for (int i = 0; i < 200000; ++i) x = x + 1;
    });
  });
  const auto totals = tracer.totals(0, tracer.mark());
  const auto& outer = totals.at("outer");
  const auto& inner = totals.at("inner");
  EXPECT(tracer.spans().size() == 2);
  EXPECT(tracer.spans()[1].parent == 0);
  EXPECT(inner.total_s > 0 && inner.total_s <= outer.total_s);
  EXPECT(std::abs(outer.self_s - (outer.total_s - inner.total_s)) < 1e-12);
  Tracer off(false);
  EXPECT(off.span("x", [] { return 3; }) == 3);
  EXPECT(off.mark() == 0);
}

}  // namespace

int main(int argc, char** argv) {
  Env env;
  std::string expected_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--expected") == 0) expected_path = argv[i + 1];
    if (std::strcmp(argv[i], "--out-dir") == 0) env.out_dir = argv[i + 1];
  }
  if (expected_path.empty() || env.out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_tests --expected FILE --out-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(env.out_dir);
  env.expected = read_expectations(expected_path);

  test_tracer_self_time();
  for (const WorkloadSpec& spec : workloads()) {
    for (std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
      std::fprintf(stderr, "%s seed %llu\n", spec.name.c_str(),
                   static_cast<unsigned long long>(seed));
      const Ran ran = run(env, spec, seed);
      test_expectations_reproduce(env, spec, ran, seed);
      if (spec.capture) {
        test_capture_matches_in_memory(spec, ran, seed);
      } else if (spec.profiles.size() == 1) {
        test_single_run_matches_run_workload(spec, ran, seed);
      } else {
        test_grid_matches_sweep(spec, ran, seed);
      }
      if (seed != kDefaultSeed) continue;
      test_perturbed_expectation_fails(env, spec, ran);
      test_throw_is_failure(env, spec, ran);
      test_piecewise_matches_call(spec, ran);
    }
  }
  std::fprintf(stderr, "%d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}
