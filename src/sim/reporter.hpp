// Figure-shaped reporting: normalized stacked breakdowns per workload with
// the paper's G-Mean / A-Mean summary rows, rendered as text and CSV.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "model/model_params.hpp"

namespace hymem::sim {

/// One stacked bar: named components summing to the bar total.
struct Stack {
  std::vector<double> parts;  // same order as FigureTable's component names

  double total() const;
};

/// Accumulates per-workload stacked bars (possibly several bars per
/// workload, e.g. CLOCK-DWF vs proposed) and renders a paper-figure-shaped
/// table with G-Mean and A-Mean rows over each bar column's totals.
class FigureTable {
 public:
  /// `components` are the stack part names (e.g. {"static","dynamic",
  /// "migration"}); `series` are the bar names per workload (e.g.
  /// {"clock-dwf","two-lru"}).
  FigureTable(std::string title, std::vector<std::string> components,
              std::vector<std::string> series);

  /// Adds one workload row: `stacks` has one Stack per series.
  void add(const std::string& workload, const std::vector<Stack>& stacks);

  /// Renders: header, one row per workload with per-component columns and a
  /// total per series, then G-Mean/A-Mean rows over totals. When a mean
  /// leaves rows out, one line after the table names them per series: the
  /// G-Mean's first, then the A-Mean's.
  void print(std::ostream& out) const;

  /// Machine-readable dump of the same data.
  void print_csv(std::ostream& out) const;

  /// The exact CSV header print_csv emits: "workload", then
  /// "<series>:<component>"... and "<series>:total" per series. Golden
  /// tests pin this per figure so downstream CSV consumers never break
  /// silently.
  std::vector<std::string> csv_header() const;

  const std::string& title() const { return title_; }
  const std::vector<std::string>& components() const { return components_; }
  const std::vector<std::string>& series() const { return series_; }

  /// Geometric mean of one series' positive totals. A total that is zero,
  /// or NaN where a figure normalizes 0 by 0 (a workload that writes nothing
  /// to NVM at a small scale), has no logarithm, so its row is left out; 0
  /// when no total is positive.
  double geomean_total(std::size_t series_index) const;
  /// The workloads geomean_total(series_index) leaves out, in row order.
  std::vector<std::string> geomean_left_out(std::size_t series_index) const;
  /// Arithmetic mean of one series' finite totals: a 0/0 row's NaN is left
  /// out; 0 when no total is finite.
  double amean_total(std::size_t series_index) const;
  /// The workloads amean_total(series_index) leaves out, in row order.
  std::vector<std::string> amean_left_out(std::size_t series_index) const;

  /// The G-Mean of series `numerator` over that of series `denominator`,
  /// both taken over the rows whose totals are positive in both series, so
  /// the quotient compares like with like, and the rows this leaves out
  /// although one of the two series' own G-Means keeps them.
  struct GeomeanRatio {
    double value = 0.0;
    std::vector<std::string> one_sided;
  };
  GeomeanRatio geomean_ratio(std::size_t numerator,
                             std::size_t denominator) const;
  /// Prints "<label>: <ratio>" and, when the ratio leaves out a row one
  /// series keeps, one line naming those rows.
  void print_geomean_ratio(std::ostream& out, const std::string& label,
                           std::size_t numerator,
                           std::size_t denominator) const;

 private:
  struct Row {
    std::string workload;
    std::vector<Stack> stacks;
  };
  /// One series' totals that `keep` accepts, and the workloads of the rest.
  struct Split {
    std::vector<double> kept;
    std::vector<std::string> left_out;
  };
  Split split_totals(std::size_t series_index, bool (*keep)(double)) const;
  /// Prints "<mean> leaves out totals that are not <what>: <series> (<rows>)
  /// ..." when `keep` rejects any total; nothing otherwise.
  void print_left_out(std::ostream& out, const char* mean, const char* what,
                      bool (*keep)(double)) const;

  std::string title_;
  std::vector<std::string> components_;
  std::vector<std::string> series_;
  std::vector<Row> rows_;
};

/// Prints the Table IV memory-characteristics header every bench leads with.
void print_memory_characteristics(std::ostream& out,
                                  const mem::MemTechnology& dram,
                                  const mem::MemTechnology& nvm);

}  // namespace hymem::sim
