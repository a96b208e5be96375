#include "sim/results_io.hpp"

#include <iomanip>
#include <sstream>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace hymem::sim {

namespace {

/// Minimal JSON emitter — enough for flat objects of numbers and strings.
class JsonObject {
 public:
  explicit JsonObject(std::ostream& out, int indent = 0)
      : out_(out), indent_(indent) {
    out_ << "{";
  }

  void field(const std::string& key, const std::string& value) {
    prefix(key);
    out_ << '"' << escape(value) << '"';
  }
  void field(const std::string& key, double value) {
    prefix(key);
    out_ << std::setprecision(12) << value;
  }
  void field(const std::string& key, std::uint64_t value) {
    prefix(key);
    out_ << value;
  }
  /// Opens a nested object; the caller must close it before continuing.
  void raw_field(const std::string& key) { prefix(key); }

  void close() {
    out_ << '\n';
    pad(indent_);
    out_ << "}";
  }

 private:
  void pad(int n) {
    for (int i = 0; i < n; ++i) out_ << ' ';
  }
  void prefix(const std::string& key) {
    if (!first_) out_ << ',';
    first_ = false;
    out_ << '\n';
    pad(indent_ + 2);
    out_ << '"' << escape(key) << "\": ";
  }
  static std::string escape(const std::string& s) {
    return util::json_escape(s);
  }

  std::ostream& out_;
  int indent_;
  bool first_ = true;
};

}  // namespace

void write_json(const RunResult& result, std::ostream& out) {
  const auto amat = result.amat();
  const auto power = result.appr();
  const auto writes = result.nvm_writes();
  const auto& c = result.counts;

  JsonObject root(out, 0);
  root.field("workload", result.workload);
  root.field("policy", result.policy);
  root.field("accesses", result.accesses);
  root.field("duration_s", result.duration_s);

  root.raw_field("counts");
  {
    JsonObject counts(out, 2);
    counts.field("dram_read_hits", c.dram_read_hits);
    counts.field("dram_write_hits", c.dram_write_hits);
    counts.field("nvm_read_hits", c.nvm_read_hits);
    counts.field("nvm_write_hits", c.nvm_write_hits);
    counts.field("page_faults", c.page_faults);
    counts.field("fills_to_dram", c.fills_to_dram);
    counts.field("fills_to_nvm", c.fills_to_nvm);
    counts.field("migrations_to_dram", c.migrations_to_dram);
    counts.field("migrations_to_nvm", c.migrations_to_nvm);
    counts.field("dirty_evictions", c.dirty_evictions);
    counts.field("page_factor", c.page_factor);
    counts.close();
  }

  root.raw_field("amat_ns");
  {
    JsonObject a(out, 2);
    a.field("hit", amat.hit_ns);
    a.field("fault", amat.fault_ns);
    a.field("migration", amat.migration_ns);
    a.field("total", amat.total());
    a.close();
  }

  root.raw_field("appr_nj");
  {
    JsonObject p(out, 2);
    p.field("static", power.static_nj);
    p.field("hit", power.hit_nj);
    p.field("fault_fill", power.fault_fill_nj);
    p.field("migration", power.migration_nj);
    p.field("total", power.total());
    p.close();
  }

  root.raw_field("nvm_writes");
  {
    JsonObject w(out, 2);
    w.field("demand", writes.demand_writes);
    w.field("fault_fill", writes.fault_fill_writes);
    w.field("migration", writes.migration_writes);
    w.field("total", writes.total());
    w.close();
  }
  root.close();
}

void write_json(const std::vector<RunResult>& results, std::ostream& out) {
  out << "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i) out << ",";
    out << "\n";
    write_json(results[i], out);
  }
  out << "\n]\n";
}

std::string to_json(const RunResult& result) {
  std::ostringstream os;
  write_json(result, os);
  return os.str();
}

const std::vector<std::string>& csv_header() {
  static const std::vector<std::string> header = {
      "workload",
      "policy",
      "accesses",
      "duration_s",
      "dram_read_hits",
      "dram_write_hits",
      "nvm_read_hits",
      "nvm_write_hits",
      "page_faults",
      "fills_to_dram",
      "fills_to_nvm",
      "migrations_to_dram",
      "migrations_to_nvm",
      "dirty_evictions",
      "page_factor",
      "amat_hit_ns",
      "amat_fault_ns",
      "amat_migration_ns",
      "amat_total_ns",
      "appr_static_nj",
      "appr_hit_nj",
      "appr_fault_fill_nj",
      "appr_migration_nj",
      "appr_total_nj",
      "nvm_writes_demand",
      "nvm_writes_fault_fill",
      "nvm_writes_migration",
      "nvm_writes_total"};
  return header;
}

std::vector<std::string> csv_fields(const RunResult& result) {
  const auto amat = result.amat();
  const auto power = result.appr();
  const auto writes = result.nvm_writes();
  const auto& c = result.counts;
  return {result.workload,
          result.policy,
          std::to_string(result.accesses),
          fmt_double(result.duration_s),
          std::to_string(c.dram_read_hits),
          std::to_string(c.dram_write_hits),
          std::to_string(c.nvm_read_hits),
          std::to_string(c.nvm_write_hits),
          std::to_string(c.page_faults),
          std::to_string(c.fills_to_dram),
          std::to_string(c.fills_to_nvm),
          std::to_string(c.migrations_to_dram),
          std::to_string(c.migrations_to_nvm),
          std::to_string(c.dirty_evictions),
          std::to_string(c.page_factor),
          fmt_double(amat.hit_ns),
          fmt_double(amat.fault_ns),
          fmt_double(amat.migration_ns),
          fmt_double(amat.total()),
          fmt_double(power.static_nj),
          fmt_double(power.hit_nj),
          fmt_double(power.fault_fill_nj),
          fmt_double(power.migration_nj),
          fmt_double(power.total()),
          std::to_string(writes.demand_writes),
          std::to_string(writes.fault_fill_writes),
          std::to_string(writes.migration_writes),
          std::to_string(writes.total())};
}

void write_csv(const std::vector<RunResult>& results, std::ostream& out) {
  CsvWriter writer(out);
  writer.write_row(csv_header());
  for (const auto& result : results) writer.write_row(csv_fields(result));
}

}  // namespace hymem::sim
