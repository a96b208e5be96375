#include "bench.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "model/endurance_model.hpp"
#include "model/model_params.hpp"
#include "model/perf_model.hpp"
#include "model/power_model.hpp"
#include "model/probabilities.hpp"
#include "obs/timeline_io.hpp"
#include "os/vmm.hpp"
#include "sim/policy_factory.hpp"
#include "sim/results_io.hpp"
#include "synth/generator.hpp"
#include "synth/workload_profile.hpp"
#include "trace/interner.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"

namespace perfbench {

namespace model = hymem::model;
namespace sim = hymem::sim;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Tracer ------------------------------------------------------------------

int Tracer::open(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  // Stamp last, so the bookkeeping above stays outside the interval.
  spans_.back().start_s = seconds_since(epoch_);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(epoch_);
  stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals(std::size_t from,
                                                      std::size_t to) const {
  std::vector<double> children(to - from, 0.0);
  for (std::size_t i = from; i < to; ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) >= from) {
      children[static_cast<std::size_t>(parent) - from] +=
          spans_[i].duration_s();
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = from; i < to; ++i) {
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += spans_[i].duration_s();
    t.self_s += spans_[i].duration_s() - children[i - from];
  }
  return out;
}

double Tracer::sum(std::string_view name, std::size_t from,
                   std::size_t to) const {
  double total = 0;
  for (std::size_t i = from; i < to; ++i) {
    if (spans_[i].name == name) total += spans_[i].duration_s();
  }
  return total;
}

void Tracer::write_json(std::ostream& out) const {
  out << "{\"spans\": [";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d, "
                  "\"op\": %ld}",
                  s.start_s, s.end_s, s.parent, s.op);
    out << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name << "\", "
        << buf;
  }
  out << "\n]}\n";
}

// --- Workloads ---------------------------------------------------------------

const std::vector<WorkloadSpec>& workloads() {
  // The twelve Table III profiles, named rather than taken from
  // synth::parsec_profiles(), so the grid stays the same if profiles are
  // added to the library.
  static const std::vector<WorkloadSpec> specs = {
      {"dedup-two-lru", {"dedup"}, 4, {"two-lru"}, false},
      {"canneal-clock-dwf", {"canneal"}, 4, {"clock-dwf"}, false},
      {"capture-replay-timeline", {"x264"}, 4, {"two-lru"}, true},
      {"fig-grid",
       {"blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
        "fluidanimate", "freqmine", "raytrace", "streamcluster", "vips",
        "x264"},
       64,
       {"dram-only", "nvm-only", "clock-dwf", "two-lru"},
       false},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

sim::ExperimentConfig cell_config(const WorkloadSpec& spec,
                                  const std::string& policy) {
  // Epoch length of the capture workload's timeline.
  constexpr std::uint64_t kTimelineEpoch = 1024;
  sim::ExperimentConfig config;
  config.policy = policy;
  if (spec.capture) config.timeline_epoch = kTimelineEpoch;
  return config;
}

Inputs set_up(const WorkloadSpec& spec, std::uint64_t seed,
              const std::string& capture_path, Tracer& tracer) {
  Inputs inputs;
  const sim::ExperimentConfig config = cell_config(spec, spec.policies.front());
  for (const std::string& name : spec.profiles) {
    const auto scaled = hymem::synth::parsec_profile(name).scaled(spec.scale);
    // Times only the program's calls; the count check after each stays out.
    const auto generate = [&](const hymem::synth::GeneratorOptions& options) {
      const Clock::time_point start = Clock::now();
      trace::Trace t = tracer.span("synth.generate", [&] {
        return hymem::synth::generate(scaled, options);
      });
      inputs.setup_s += seconds_since(start);
      inputs.generated_accesses += t.size();
      if (t.read_count() != scaled.reads || t.write_count() != scaled.writes) {
        inputs.violations.push_back(
            name + ": generated " + std::to_string(t.read_count()) + "R/" +
            std::to_string(t.write_count()) + "W, scaled Table III " +
            std::to_string(scaled.reads) + "R/" +
            std::to_string(scaled.writes) + "W");
      }
      return t;
    };
    Inputs::Profile profile;
    profile.name = name;
    profile.roi_seconds = scaled.roi_seconds;
    hymem::synth::GeneratorOptions options;
    options.page_size = config.page_size;
    options.line_size = config.access_granularity;
    options.seed = seed;
    if (spec.capture) {
      const trace::Trace capture = generate(options);
      const Clock::time_point start = Clock::now();
      tracer.span("trace.save", [&] { trace::save(capture, capture_path); });
      inputs.setup_s += seconds_since(start);
      inputs.capture_path = capture_path;
      inputs.capture_bytes = std::filesystem::file_size(capture_path);
    } else {
      profile.warmup = generate(options);
      hymem::synth::GeneratorOptions body = options;
      body.ensure_full_footprint = false;
      body.seed = seed + 1;
      profile.measured = generate(body);
    }
    inputs.profiles.push_back(std::move(profile));
  }
  return inputs;
}

// --- The timed operation -----------------------------------------------------

void evaluate(const sim::RunResult& result, CellResult& cell) {
  cell.counts = result.counts;
  cell.amat_ns = model::amat(result.counts, result.params).total();
  cell.appr_nj =
      model::appr(result.counts, result.params, result.duration_s).total();
  cell.nvm_writes_per_kacc =
      1000.0 * static_cast<double>(model::nvm_writes(result.counts).total()) /
      static_cast<double>(result.accesses);
  cell.epochs = result.timeline.epochs.size();
}

CellResult run_cell(const sim::ExperimentConfig& config,
                    const trace::Trace* warmup, const trace::Trace& measured,
                    double duration_s, Tracer& tracer,
                    std::vector<sim::RunResult>* keep) {
  CellResult cell;
  cell.policy = config.policy;
  try {
    const Clock::time_point start = Clock::now();
    sim::RunResult result = tracer.span("sim.run_experiment", [&] {
      return warmup != nullptr
                 ? sim::run_experiment(*warmup, measured, duration_s, config)
                 : sim::run_experiment(measured, duration_s, config);
    });
    cell.call_s = seconds_since(start);
    tracer.span("model.evaluate", [&] { evaluate(result, cell); });
    cell.ok = true;
    if (keep != nullptr) keep->push_back(std::move(result));
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  return cell;
}

OpResult run_op(const WorkloadSpec& spec, const Inputs& inputs,
                const std::string& export_path, Tracer& tracer, long first_op,
                bool keep_loaded) {
  OpResult op;
  const Clock::time_point start = Clock::now();
  std::optional<trace::Trace> loaded;
  if (spec.capture) {
    loaded = tracer.span("trace.load",
                         [&] { return trace::load(inputs.capture_path); });
  }
  std::vector<sim::RunResult> results;
  long id = first_op;
  for (const Inputs::Profile& profile : inputs.profiles) {
    for (const std::string& policy : spec.policies) {
      const sim::ExperimentConfig config = cell_config(spec, policy);
      tracer.set_op(id++);
      CellResult cell =
          spec.capture
              ? run_cell(config, nullptr, *loaded, profile.roi_seconds, tracer,
                         &results)
              : run_cell(config, &profile.warmup, profile.measured,
                         profile.roi_seconds, tracer, &results);
      tracer.set_op(-1);
      cell.profile = profile.name;
      if (cell.ok) op.measured_accesses += cell.counts.accesses;
      op.cells.push_back(std::move(cell));
    }
  }
  if (spec.capture) {
    tracer.span("obs.export", [&] {
      std::ofstream out(export_path);
      if (!results.empty()) {
        hymem::obs::write_timeline_csv(results.front().timeline, out);
      }
    });
  } else {
    tracer.span("sim.export", [&] {
      std::ofstream out(export_path);
      sim::write_csv(results, out);
    });
  }
  op.seconds = seconds_since(start);
  if (keep_loaded) op.loaded = std::move(loaded);
  return op;
}

CellResult run_piecewise(const sim::ExperimentConfig& config,
                         const trace::Trace* warmup,
                         const trace::Trace& measured, double duration_s,
                         Tracer& tracer) {
  CellResult cell;
  cell.policy = config.policy;
  try {
    tracer.span("sim.piecewise", [&] {
      const trace::Trace& sizing_trace = warmup != nullptr ? *warmup : measured;
      const std::uint64_t footprint = tracer.span("trace.characterize", [&] {
        trace::TraceCharacterizer characterizer(config.page_size);
        characterizer.observe(sizing_trace);
        return characterizer.stats().distinct_pages;
      });
      const sim::MemorySizing sizing = tracer.span("sim.size_memory", [&] {
        return sim::size_memory(footprint, config);
      });
      std::unique_ptr<hymem::os::Vmm> vmm;
      std::unique_ptr<hymem::policy::HybridPolicy> policy;
      tracer.span("policy.construct", [&] {
        hymem::os::VmmConfig vmm_config;
        vmm_config.dram_frames = sizing.dram_frames;
        vmm_config.nvm_frames = sizing.nvm_frames;
        vmm_config.page_size = config.page_size;
        vmm_config.access_granularity = config.access_granularity;
        vmm_config.dram = config.dram;
        vmm_config.nvm = config.nvm;
        vmm_config.disk = config.disk;
        vmm_config.transfer_mode = config.transfer_mode;
        vmm_config.wear_leveling = config.wear_leveling;
        vmm = std::make_unique<hymem::os::Vmm>(vmm_config);
        policy = sim::make_policy(config.policy, *vmm, config.migration,
                                  config.sample);
      });
      std::optional<trace::PageIdInterner> warm_pages;
      std::optional<trace::PageIdInterner> pages;
      tracer.span("trace.decode", [&] {
        if (warmup != nullptr) warm_pages.emplace(*warmup, config.page_size);
        pages.emplace(measured, config.page_size);
      });
      // The two-trace form warms on its own trace at least once; the
      // single-trace form replays the measured trace warmup_passes times.
      const trace::Trace& warm_trace = warmup != nullptr ? *warmup : measured;
      const trace::PageIdInterner& warm =
          warmup != nullptr ? *warm_pages : *pages;
      const unsigned passes = warmup != nullptr
                                  ? std::max(1u, config.warmup_passes)
                                  : config.warmup_passes;
      tracer.span("policy.warmup", [&] {
        const auto ids = warm.pages();
        const auto accesses = warm_trace.accesses();
        for (unsigned pass = 0; pass < passes; ++pass) {
          for (std::size_t i = 0; i < ids.size(); ++i) {
            policy->on_access(ids[i], accesses[i].type);
          }
        }
      });
      if (passes > 0) {
        tracer.span("os.reset_accounting", [&] { vmm->reset_accounting(); });
      }
      tracer.span("policy.replay", [&] {
        const auto ids = pages->pages();
        const auto accesses = measured.accesses();
        for (std::size_t i = 0; i < ids.size(); ++i) {
          policy->on_access(ids[i], accesses[i].type);
        }
      });
      tracer.span("model.evaluate", [&] {
        sim::RunResult result;
        result.accesses = measured.size();
        result.duration_s = duration_s;
        result.counts = model::EventCounts::from_vmm(*vmm, result.accesses);
        result.params = model::ModelParams::from_vmm(*vmm);
        evaluate(result, cell);
      });
    });
    cell.ok = true;
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  return cell;
}

SimTotals sim_totals(const std::vector<CellResult>& cells) {
  SimTotals t;
  double amat = 0, appr = 0, writes = 0;
  for (const CellResult& c : cells) {
    if (!c.ok) continue;
    const double n = static_cast<double>(c.counts.accesses);
    amat += c.amat_ns * n;
    appr += c.appr_nj * n;
    writes += c.nvm_writes_per_kacc * n;
    t.accesses += c.counts.accesses;
  }
  if (t.accesses > 0) {
    const double n = static_cast<double>(t.accesses);
    t.amat_ns = amat / n;
    t.appr_nj = appr / n;
    t.nvm_writes_per_kacc = writes / n;
  }
  return t;
}

// --- Output check ------------------------------------------------------------

namespace {

// Every model::EventCounts field, in expected.txt column order.
constexpr std::array<const char*, 12> kCountNames = {
    "accesses",          "dram_read_hits",     "dram_write_hits",
    "nvm_read_hits",     "nvm_write_hits",     "page_faults",
    "fills_to_dram",     "fills_to_nvm",       "migrations_to_dram",
    "migrations_to_nvm", "dirty_evictions",    "page_factor"};

std::array<std::uint64_t*, 12> count_fields(model::EventCounts& c) {
  return {&c.accesses,          &c.dram_read_hits,     &c.dram_write_hits,
          &c.nvm_read_hits,     &c.nvm_write_hits,     &c.page_faults,
          &c.fills_to_dram,     &c.fills_to_nvm,       &c.migrations_to_dram,
          &c.migrations_to_nvm, &c.dirty_evictions,    &c.page_factor};
}

std::array<std::uint64_t, 12> count_values(model::EventCounts c) {
  std::array<std::uint64_t, 12> out{};
  const auto fields = count_fields(c);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = *fields[i];
  return out;
}

bool close_enough(double a, double b, double rel) {
  return a == b ||
         std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

// First field where the cell differs from the row, or "" when none does.
std::string first_difference(const CellResult& cell, const Expectation& row,
                             double rel) {
  const auto got = count_values(cell.counts);
  const auto want = count_values(row.counts);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return std::string(kCountNames[i]) + " " + std::to_string(got[i]) +
             " != " + std::to_string(want[i]);
    }
  }
  const std::pair<const char*, std::pair<double, double>> sims[] = {
      {"amat_ns", {cell.amat_ns, row.amat_ns}},
      {"appr_nj", {cell.appr_nj, row.appr_nj}},
      {"nvm_writes_per_kacc",
       {cell.nvm_writes_per_kacc, row.nvm_writes_per_kacc}}};
  for (const auto& [name, values] : sims) {
    if (!close_enough(values.first, values.second, rel)) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s %.17g != %.17g", name, values.first,
                    values.second);
      return buf;
    }
  }
  return "";
}

bool invariants_hold(const CellResult& cell) {
  return cell.counts.hits() + cell.counts.page_faults == cell.counts.accesses &&
         model::probabilities(cell.counts).is_consistent();
}

}  // namespace

bool same_stats(const CellResult& a, const CellResult& b) {
  Expectation row;
  row.counts = b.counts;
  row.amat_ns = b.amat_ns;
  row.appr_nj = b.appr_nj;
  row.nvm_writes_per_kacc = b.nvm_writes_per_kacc;
  return a.ok && b.ok && first_difference(a, row, 1e-12).empty();
}

std::vector<Expectation> read_expectations(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open expectations: " + path);
  std::vector<Expectation> rows;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Expectation row;
    fields >> row.workload >> row.seed >> row.cell >> row.profile >> row.policy;
    for (std::uint64_t* field : count_fields(row.counts)) fields >> *field;
    fields >> row.amat_ns >> row.appr_nj >> row.nvm_writes_per_kacc;
    std::string extra;
    if (fields.fail() || (fields >> extra)) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed expectation row");
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void write_expectations(const std::vector<Expectation>& rows,
                        std::ostream& out) {
  for (const Expectation& row : rows) {
    out << row.workload << ' ' << row.seed << ' ' << row.cell << ' '
        << row.profile << ' ' << row.policy;
    for (std::uint64_t value : count_values(row.counts)) out << ' ' << value;
    char buf[96];
    std::snprintf(buf, sizeof buf, " %.17g %.17g %.17g\n", row.amat_ns,
                  row.appr_nj, row.nvm_writes_per_kacc);
    out << buf;
  }
}

std::vector<Expectation> expectations_for(
    const WorkloadSpec& spec, std::uint64_t seed,
    const std::vector<CellResult>& cells) {
  std::vector<Expectation> rows;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Expectation row;
    row.workload = spec.name;
    row.seed = seed;
    row.cell = i;
    row.profile = cells[i].profile;
    row.policy = cells[i].policy;
    row.counts = cells[i].counts;
    row.amat_ns = cells[i].amat_ns;
    row.appr_nj = cells[i].appr_nj;
    row.nvm_writes_per_kacc = cells[i].nvm_writes_per_kacc;
    rows.push_back(std::move(row));
  }
  const SimTotals totals = sim_totals(cells);
  Expectation row;
  row.workload = spec.name;
  row.seed = seed;
  row.cell = cells.size();
  row.profile = "*";
  row.policy = "*";
  row.counts.accesses = totals.accesses;
  row.amat_ns = totals.amat_ns;
  row.appr_nj = totals.appr_nj;
  row.nvm_writes_per_kacc = totals.nvm_writes_per_kacc;
  rows.push_back(std::move(row));
  return rows;
}

CheckResult check_cells(const WorkloadSpec& spec, std::uint64_t seed,
                        const std::vector<CellResult>& cells,
                        const std::vector<Expectation>& expected) {
  constexpr double kRel = 1e-9;
  CheckResult check;
  std::vector<const Expectation*> rows;
  const Expectation* totals_row = nullptr;
  for (const Expectation& row : expected) {
    if (row.workload != spec.name || row.seed != seed) continue;
    if (row.policy == "*") {
      totals_row = &row;
    } else {
      rows.push_back(&row);
    }
  }
  check.exact = !rows.empty();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    const std::string where = spec.name + " cell " + std::to_string(i) + " (" +
                              cell.profile + "/" + cell.policy + ")";
    std::string problem;
    if (!cell.ok) {
      problem = "threw: " + cell.error;
    } else if (!invariants_hold(cell)) {
      problem = "invariant failed: hits + faults != accesses or Table I "
                "probabilities inconsistent";
    } else if (check.exact) {
      const auto row = std::find_if(rows.begin(), rows.end(), [&](auto* r) {
        return r->cell == i && r->profile == cell.profile &&
               r->policy == cell.policy;
      });
      problem = row == rows.end() ? "no committed expectation"
                                  : first_difference(cell, **row, kRel);
    }
    if (!problem.empty()) {
      ++check.failed_cells;
      check.messages.push_back(where + ": " + problem);
    }
  }
  if (check.exact && totals_row != nullptr) {
    const SimTotals t = sim_totals(cells);
    check.totals_ok = t.accesses == totals_row->counts.accesses &&
                      close_enough(t.amat_ns, totals_row->amat_ns, kRel) &&
                      close_enough(t.appr_nj, totals_row->appr_nj, kRel) &&
                      close_enough(t.nvm_writes_per_kacc,
                                   totals_row->nvm_writes_per_kacc, kRel);
    if (!check.totals_ok) {
      check.messages.push_back(spec.name + ": workload totals differ from "
                                           "the committed expectation");
    }
  }
  return check;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                            : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
