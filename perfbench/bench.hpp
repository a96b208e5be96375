// The benchmark's workloads, their output check and the span recorder the
// traced mode uses. The harness (harness.cpp) and the benchmark's own tests
// (tests.cpp) share everything here. It reaches hymem only through public
// library calls, timed from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "model/events.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace trace = hymem::trace;

using Clock = std::chrono::steady_clock;

/// Seconds from `start` to now.
double seconds_since(Clock::time_point start);

// --- Spans -------------------------------------------------------------------

/// One timed interval around a call into the program.
struct Span {
  std::string name;
  double start_s = 0;  ///< Seconds since the tracer's epoch.
  double end_s = 0;
  int parent = -1;     ///< Index of the enclosing span, -1 at the root.
  long op = -1;        ///< Operation (run_experiment cell) id, -1 outside one.

  double duration_s() const { return end_s - start_s; }
};

/// In-memory span recorder. A disabled tracer records nothing and costs one
/// branch per call, so the untimed and timed paths run the same code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Runs `fn` inside a span named `name` (nested under the open span).
  template <class Fn>
  decltype(auto) span(std::string_view name, Fn&& fn) {
    if (!enabled_) return fn();
    struct Closer {
      Tracer& tracer;
      int id;
      ~Closer() { tracer.close(id); }
    } closer{*this, open(name)};
    return fn();
  }

  /// Operation id stamped on spans opened from now on (-1: none).
  void set_op(long op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Index of the next span to be recorded (for slicing spans_ by phase).
  std::size_t mark() const { return spans_.size(); }

  /// Total and self time (span minus the part its children cover) per span
  /// name, over spans [from, to).
  struct Totals {
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Totals> totals(std::size_t from, std::size_t to) const;
  /// Sum of durations of spans named `name` in [from, to).
  double sum(std::string_view name, std::size_t from, std::size_t to) const;

  /// {"spans": [{"name", "start_s", "end_s", "parent", "op"}, ...]}.
  void write_json(std::ostream& out) const;

 private:
  int open(std::string_view name);
  void close(int id);

  bool enabled_;
  long op_ = -1;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- Workloads ---------------------------------------------------------------

/// One named benchmark workload: Table III profiles at a scale, crossed with
/// policies. `capture` workloads replay one trace through a file with a
/// timeline; the others run the two-trace steady-state experiment.
struct WorkloadSpec {
  std::string name;
  std::vector<std::string> profiles;
  std::uint64_t scale = 1;
  std::vector<std::string> policies;
  bool capture = false;
};

/// Every workload the harness can run (BENCHMARK.json lists the ones the
/// benchmark measures).
const std::vector<WorkloadSpec>& workloads();
/// Looks a workload up by name; nullptr when unknown.
const WorkloadSpec* find_workload(std::string_view name);

/// The workload's inputs, produced through the program at set-up.
struct Inputs {
  struct Profile {
    std::string name;
    double roi_seconds = 0;
    trace::Trace warmup;  ///< Both empty for capture workloads (on disk).
    trace::Trace measured;
  };
  std::vector<Profile> profiles;
  std::string capture_path;    ///< The saved trace of a capture workload.
  std::uint64_t capture_bytes = 0;
  std::uint64_t generated_accesses = 0;
  /// Host seconds of the program calls that made the inputs: synth::generate
  /// for each trace, plus trace::save for the capture.
  double setup_s = 0;
  /// Set-up invariant: every generated trace has exactly the scaled Table III
  /// read and write counts. One message per violation.
  std::vector<std::string> violations;
};

/// Experiment config for one cell of a workload.
hymem::sim::ExperimentConfig cell_config(const WorkloadSpec& spec,
                                         const std::string& policy);

/// Generates the inputs exactly as sim::run_workload does (warmup trace at
/// `seed`, full footprint; measured trace at seed + 1 without it), or, for a
/// capture workload, the one trace `trace_tool gen` makes, saved with
/// trace::save to `capture_path`. Spans: synth.generate, trace.save.
Inputs set_up(const WorkloadSpec& spec, std::uint64_t seed,
              const std::string& capture_path, Tracer& tracer);

/// What one run_experiment cell produced (enough to check and to total).
struct CellResult {
  std::string profile;
  std::string policy;
  bool ok = false;
  std::string error;  ///< Exception text when !ok.
  hymem::model::EventCounts counts;
  double amat_ns = 0;
  double appr_nj = 0;
  double nvm_writes_per_kacc = 0;
  double call_s = 0;         ///< Host seconds of the run_experiment call.
  std::uint64_t epochs = 0;  ///< Timeline epochs (capture workloads).
};

/// Fills `cell` from a run: its counts and the Eq. 1 AMAT, Eq. 2 APPR and
/// NVM writes per 1000 accesses the model layer computes from them.
void evaluate(const hymem::sim::RunResult& result, CellResult& cell);

/// One run_experiment call (two-trace form when `warmup` is non-null) under
/// a "sim.run_experiment" span, then its Eq. 1-3 evaluation under
/// "model.evaluate". A throw is caught into the cell. `keep` (optional)
/// receives the RunResult for export.
CellResult run_cell(const hymem::sim::ExperimentConfig& config,
                    const trace::Trace* warmup, const trace::Trace& measured,
                    double duration_s, Tracer& tracer,
                    std::vector<hymem::sim::RunResult>* keep = nullptr);

/// One timed operation: everything after set-up.
struct OpResult {
  std::vector<CellResult> cells;
  std::uint64_t measured_accesses = 0;
  double seconds = 0;  ///< Host seconds of the whole operation.
  /// Capture workloads keep the loaded trace for the piecewise re-run.
  std::optional<trace::Trace> loaded;
};

/// Runs the timed operation: [trace::load,] every cell's run_experiment and
/// Eq. 1-3 evaluation, then the export (sim::write_csv, or for a capture
/// workload obs::write_timeline_csv) to `export_path`. A cell that throws is
/// recorded as failed and the rest still run. `first_op` numbers the cells
/// for the tracer's operation ids.
OpResult run_op(const WorkloadSpec& spec, const Inputs& inputs,
                const std::string& export_path, Tracer& tracer, long first_op,
                bool keep_loaded = false);

/// Re-runs one cell piece by piece through the public calls run_experiment
/// is made of, under child spans of "sim.piecewise": trace.characterize,
/// sim.size_memory, policy.construct, trace.decode, policy.warmup,
/// os.reset_accounting, policy.replay, model.evaluate. `warmup` is null for
/// the single-trace form.
CellResult run_piecewise(const hymem::sim::ExperimentConfig& config,
                         const trace::Trace* warmup,
                         const trace::Trace& measured, double duration_s,
                         Tracer& tracer);

/// The three simulated end-to-end metrics: access-weighted Eq. 1 AMAT and
/// Eq. 2 APPR, and NVM writes per 1000 measured accesses, over ok cells.
struct SimTotals {
  double amat_ns = 0;
  double appr_nj = 0;
  double nvm_writes_per_kacc = 0;
  std::uint64_t accesses = 0;
};
SimTotals sim_totals(const std::vector<CellResult>& cells);

// --- Output check ------------------------------------------------------------

/// Committed simulated statistics of one cell (or, with policy "*", the
/// workload totals, where only accesses and the three sim values are set).
struct Expectation {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t cell = 0;
  std::string profile;
  std::string policy;
  hymem::model::EventCounts counts;
  double amat_ns = 0;
  double appr_nj = 0;
  double nvm_writes_per_kacc = 0;
};

/// Default seed and the held-out seed whose expectations are committed.
inline constexpr std::uint64_t kDefaultSeed = 42;
inline constexpr std::uint64_t kHeldOutSeed = 2016;

/// Reads / writes the committed expectation file (one line per cell).
/// Throws std::runtime_error on a malformed file.
std::vector<Expectation> read_expectations(const std::string& path);
void write_expectations(const std::vector<Expectation>& rows,
                        std::ostream& out);
/// The rows a run of `cells` at `seed` would commit.
std::vector<Expectation> expectations_for(const WorkloadSpec& spec,
                                          std::uint64_t seed,
                                          const std::vector<CellResult>& cells);

/// Result of checking one operation's cells.
struct CheckResult {
  std::size_t failed_cells = 0;   ///< Cells that threw or mismatched.
  bool exact = false;             ///< Compared against committed rows.
  bool totals_ok = true;          ///< Workload totals matched (exact only).
  std::vector<std::string> messages;
};

/// Checks cells against the committed rows for (spec, seed) when there are
/// any; otherwise checks only the seed-independent invariants: hits plus
/// faults equal accesses, and the Table I probabilities are consistent.
/// Integer counts must match exactly; derived doubles to 1e-9 relative.
CheckResult check_cells(const WorkloadSpec& spec, std::uint64_t seed,
                        const std::vector<CellResult>& cells,
                        const std::vector<Expectation>& expected);

/// True when two ok cells carry the same simulated statistics: equal counts,
/// derived values within 1e-12 relative.
bool same_stats(const CellResult& a, const CellResult& b);

// --- Small statistics helpers ------------------------------------------------

double median(std::vector<double> values);

}  // namespace perfbench
