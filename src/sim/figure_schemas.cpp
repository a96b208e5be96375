#include "sim/figure_schemas.hpp"

#include <stdexcept>

#include "obs/timeline_io.hpp"

namespace hymem::sim {

namespace {

// The timeline table is the sweep runner's spliced export: job identity
// columns then the obs epoch columns. Composing from
// obs::timeline_csv_header() keeps one source of truth — the golden-header
// test pins this composed schema, which in turn pins the obs header.
std::vector<std::string> timeline_columns() {
  std::vector<std::string> columns = {"workload", "policy", "variant", "seed"};
  const auto& epoch = obs::timeline_csv_header();
  columns.insert(columns.end(), epoch.begin(), epoch.end());
  return columns;
}

}  // namespace

const std::vector<FigureSchema>& figure_schemas() {
  static const std::vector<FigureSchema> schemas = {
      {"fig1",
       "Fig. 1: DRAM-only APPR shares",
       {"static", "dynamic", "pagefault"},
       {"dram-only"}},
      {"fig2a",
       "Fig. 2a: CLOCK-DWF APPR / DRAM-only APPR",
       {"static", "dynamic", "migration"},
       {"clock-dwf"}},
      {"fig2b",
       "Fig. 2b: CLOCK-DWF AMAT / DRAM-only AMAT",
       {"requests", "migration"},
       {"clock-dwf"}},
      {"fig2c",
       "Fig. 2c: CLOCK-DWF NVM writes / NVM-only writes",
       {"pagefault", "migration", "demand"},
       {"clock-dwf"}},
      {"fig4a",
       "Fig. 4a: APPR / DRAM-only APPR",
       {"static", "dynamic", "migration"},
       {"clock-dwf", "two-lru"}},
      {"fig4b",
       "Fig. 4b: NVM writes / NVM-only writes",
       {"pagefault", "migration", "demand"},
       {"clock-dwf", "two-lru"}},
      {"fig4c",
       "Fig. 4c: proposed AMAT / CLOCK-DWF AMAT",
       {"requests", "migration"},
       {"two-lru"}},
  };
  return schemas;
}

const std::vector<TableSchema>& table_schemas() {
  static const std::vector<TableSchema> schemas = {
      {"table1",
       {"workload", "PHitDRAM", "PHitNVM", "PMiss", "PWDRAM", "PWNVM", "PMigD",
        "PMigN", "PDiskToD"}},
      {"table3",
       {"Workload", "Working Set (KB)", "# Reads", "# Writes", "read %",
        "write %", "write-dominant pages"}},
      {"timeline", timeline_columns()},
      // bench_sampled_frontier: the sampled-hotness accuracy-vs-overhead
      // frontier (sample period x ring depth x migration budget) against
      // the omniscient two-LRU and CLOCK-DWF baselines.
      {"sampled-frontier",
       {"workload", "policy", "variant", "sample_period", "ring_capacity",
        "migration_budget", "drain_period", "amat_total_ns",
        "amat_vs_two_lru", "appr_total_nj", "nvm_writes_total", "promotions",
        "demotions", "sample_drops", "migration_backlog"}},
      // bench_analytic: the closed-form estimator (model/analytic) against
      // exhaustive simulation over a threshold/window grid — per-cell
      // predicted-vs-simulated metrics and the frontier comparison (does
      // the analytic ranking recover the true top cells?).
      {"analytic-frontier",
       {"workload", "policy", "variant", "read_threshold", "write_threshold",
        "read_perc", "write_perc", "predicted_amat_ns", "simulated_amat_ns",
        "amat_rel_err", "predicted_hit_ratio", "simulated_hit_ratio",
        "predicted_rank", "simulated_rank", "in_top3_both"}},
  };
  return schemas;
}

const FigureSchema& figure_schema(const std::string& id) {
  for (const FigureSchema& s : figure_schemas()) {
    if (s.id == id) return s;
  }
  throw std::logic_error("unknown figure schema id: " + id);
}

const TableSchema& table_schema(const std::string& id) {
  for (const TableSchema& s : table_schemas()) {
    if (s.id == id) return s;
  }
  throw std::logic_error("unknown table schema id: " + id);
}

}  // namespace hymem::sim
