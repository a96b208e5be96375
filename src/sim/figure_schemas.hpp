// Registry of the output schemas: every stacked paper figure bench_paper
// prints (title, stack components, bar series) and every table's column
// list (Tables I and III, the spliced timeline, and the sampled-frontier
// and analytic harnesses) lives here instead of being retyped inside each
// bench main().
//
// The point is stability: these CSV/text headers are the interface consumed
// by plotting scripts and by the results archive, so the schemas are pinned
// by golden tests (tests/sim/test_figure_schemas.cpp) and a bench can no
// longer drift its output shape silently.
#pragma once

#include <string>
#include <vector>

#include "sim/reporter.hpp"

namespace hymem::sim {

/// Shape of one stacked paper figure.
struct FigureSchema {
  std::string id;     ///< short handle, e.g. "fig4a"
  std::string title;  ///< the rendered table title
  std::vector<std::string> components;
  std::vector<std::string> series;

  /// An empty FigureTable of this shape.
  FigureTable make_table() const { return {title, components, series}; }
  /// The exact CSV header a table of this shape emits.
  std::vector<std::string> csv_header() const {
    return make_table().csv_header();
  }
};

/// Shape of one paper text table (column names only).
struct TableSchema {
  std::string id;
  std::vector<std::string> columns;
};

/// All registered figures, in paper order.
const std::vector<FigureSchema>& figure_schemas();
/// All registered text tables, in paper order.
const std::vector<TableSchema>& table_schemas();

/// Lookup by id ("fig1", "fig2a", ... / "table1", "table3"); throws
/// std::logic_error on an unknown id.
const FigureSchema& figure_schema(const std::string& id);
const TableSchema& table_schema(const std::string& id);

}  // namespace hymem::sim
