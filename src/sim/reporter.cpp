#include "sim/reporter.hpp"

#include <cmath>
#include <numeric>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hymem::sim {

double Stack::total() const {
  return std::accumulate(parts.begin(), parts.end(), 0.0);
}

FigureTable::FigureTable(std::string title, std::vector<std::string> components,
                         std::vector<std::string> series)
    : title_(std::move(title)),
      components_(std::move(components)),
      series_(std::move(series)) {
  HYMEM_CHECK(!components_.empty());
  HYMEM_CHECK(!series_.empty());
}

void FigureTable::add(const std::string& workload,
                      const std::vector<Stack>& stacks) {
  HYMEM_CHECK_MSG(stacks.size() == series_.size(), "series arity mismatch");
  for (const Stack& s : stacks) {
    HYMEM_CHECK_MSG(s.parts.size() == components_.size(),
                    "component arity mismatch");
  }
  rows_.push_back(Row{workload, stacks});
}

namespace {

bool positive(double total) { return total > 0.0; }
bool finite(double total) { return std::isfinite(total); }

}  // namespace

FigureTable::Split FigureTable::split_totals(std::size_t series_index,
                                             bool (*keep)(double)) const {
  HYMEM_CHECK(series_index < series_.size());
  Split split;
  split.kept.reserve(rows_.size());
  for (const Row& r : rows_) {
    const double total = r.stacks[series_index].total();
    if (keep(total)) {
      split.kept.push_back(total);
    } else {
      split.left_out.push_back(r.workload);
    }
  }
  return split;
}

double FigureTable::geomean_total(std::size_t series_index) const {
  return geometric_mean(split_totals(series_index, positive).kept);
}

std::vector<std::string> FigureTable::geomean_left_out(
    std::size_t series_index) const {
  return split_totals(series_index, positive).left_out;
}

double FigureTable::amean_total(std::size_t series_index) const {
  return arithmetic_mean(split_totals(series_index, finite).kept);
}

std::vector<std::string> FigureTable::amean_left_out(
    std::size_t series_index) const {
  return split_totals(series_index, finite).left_out;
}

FigureTable::GeomeanRatio FigureTable::geomean_ratio(
    std::size_t numerator, std::size_t denominator) const {
  HYMEM_CHECK(numerator < series_.size() && denominator < series_.size());
  GeomeanRatio ratio;
  std::vector<double> kept_numerator;
  std::vector<double> kept_denominator;
  for (const Row& r : rows_) {
    const double top = r.stacks[numerator].total();
    const double bottom = r.stacks[denominator].total();
    if (positive(top) && positive(bottom)) {
      kept_numerator.push_back(top);
      kept_denominator.push_back(bottom);
    } else if (positive(top) || positive(bottom)) {
      ratio.one_sided.push_back(r.workload);
    }
  }
  ratio.value =
      geometric_mean(kept_numerator) / geometric_mean(kept_denominator);
  return ratio;
}

void FigureTable::print_geomean_ratio(std::ostream& out,
                                      const std::string& label,
                                      std::size_t numerator,
                                      std::size_t denominator) const {
  const GeomeanRatio ratio = geomean_ratio(numerator, denominator);
  out << label << ": " << ratio.value << "\n";
  if (ratio.one_sided.empty()) return;
  out << "Ratio leaves out rows that only one series keeps:";
  for (std::size_t i = 0; i < ratio.one_sided.size(); ++i) {
    out << (i == 0 ? " " : ", ") << ratio.one_sided[i];
  }
  out << "\n";
}

void FigureTable::print_left_out(std::ostream& out, const char* mean,
                                 const char* what, bool (*keep)(double)) const {
  std::string left_out;
  for (std::size_t s = 0; s < series_.size(); ++s) {
    const std::vector<std::string> rows = split_totals(s, keep).left_out;
    if (rows.empty()) continue;
    left_out += left_out.empty() ? " " : "; ";
    left_out += series_[s] + " (";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      left_out += (i == 0 ? "" : ", ") + rows[i];
    }
    left_out += ")";
  }
  if (!left_out.empty()) {
    out << mean << " leaves out totals that are not " << what << ":"
        << left_out << "\n";
  }
}

void FigureTable::print(std::ostream& out) const {
  out << "== " << title_ << " ==\n";
  std::vector<std::string> header{"workload"};
  for (const auto& s : series_) {
    for (const auto& c : components_) header.push_back(s + ":" + c);
    header.push_back(s + ":total");
  }
  TextTable table(header);
  for (const Row& r : rows_) {
    std::vector<std::string> row{r.workload};
    for (const Stack& s : r.stacks) {
      for (double part : s.parts) row.push_back(TextTable::fmt(part));
      row.push_back(TextTable::fmt(s.total()));
    }
    table.add_row(row);
  }
  for (const char* mean : {"G-Mean", "A-Mean"}) {
    std::vector<std::string> row{mean};
    const bool geo = std::string_view(mean) == "G-Mean";
    for (std::size_t s = 0; s < series_.size(); ++s) {
      for (std::size_t c = 0; c < components_.size(); ++c) row.emplace_back("-");
      row.push_back(TextTable::fmt(geo ? geomean_total(s) : amean_total(s)));
    }
    table.add_row(row);
  }
  out << table.to_string();
  print_left_out(out, "G-Mean", "positive", positive);
  print_left_out(out, "A-Mean", "finite", finite);
}

std::vector<std::string> FigureTable::csv_header() const {
  std::vector<std::string> header{"workload"};
  for (const auto& s : series_) {
    for (const auto& c : components_) header.push_back(s + ":" + c);
    header.push_back(s + ":total");
  }
  return header;
}

void FigureTable::print_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.write_row(csv_header());
  for (const Row& r : rows_) {
    std::vector<std::string> row{r.workload};
    for (const Stack& s : r.stacks) {
      for (double part : s.parts) row.push_back(TextTable::fmt(part, 6));
      row.push_back(TextTable::fmt(s.total(), 6));
    }
    csv.write_row(row);
  }
}

void print_memory_characteristics(std::ostream& out,
                                  const mem::MemTechnology& dram,
                                  const mem::MemTechnology& nvm) {
  out << "Memory characteristics (Table IV):\n";
  TextTable table({"memory", "latency r/w (ns)", "power r/w (nJ)",
                   "static power (J/GB.s)"});
  auto row = [&](const mem::MemTechnology& t) {
    table.add_row({t.name,
                   TextTable::fmt(t.read_latency_ns, 0) + "/" +
                       TextTable::fmt(t.write_latency_ns, 0),
                   TextTable::fmt(t.read_energy_nj, 1) + "/" +
                       TextTable::fmt(t.write_energy_nj, 1),
                   TextTable::fmt(t.static_power_j_per_gb_s, 2)});
  };
  row(dram);
  row(nvm);
  out << table.to_string();
}

}  // namespace hymem::sim
