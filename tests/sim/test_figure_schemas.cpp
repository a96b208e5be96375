// Golden tests pinning every machine-readable output header: the CSV header
// of each figure bench_paper prints (via the schema registry it builds its
// tables from), every registered text table's column list, and the flat
// RunResult CSV projection. Downstream plotting scripts key on these exact
// strings, so any change here is an interface break and must be deliberate.
#include "sim/figure_schemas.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "sim/results_io.hpp"

namespace hymem::sim {
namespace {

using Header = std::vector<std::string>;

TEST(FigureSchemas, RegistryCoversEveryPaperFigure) {
  std::set<std::string> ids;
  for (const auto& s : figure_schemas()) ids.insert(s.id);
  EXPECT_EQ(ids, (std::set<std::string>{"fig1", "fig2a", "fig2b", "fig2c",
                                        "fig4a", "fig4b", "fig4c"}));
  std::set<std::string> tables;
  for (const auto& s : table_schemas()) tables.insert(s.id);
  // "timeline", "sampled-frontier", "analytic-frontier" and the two tenant
  // tables are not paper artifacts but ride in the same registry so their
  // column lists are pinned the same way.
  EXPECT_EQ(tables,
            (std::set<std::string>{"table1", "table3", "timeline",
                                   "sampled-frontier", "analytic-frontier",
                                   "tenant-fairness", "tenant-timeline"}));
}

TEST(FigureSchemas, LookupReturnsTheRegisteredEntryOrThrows) {
  EXPECT_EQ(figure_schema("fig4a").title, "Fig. 4a: APPR / DRAM-only APPR");
  EXPECT_EQ(table_schema("table1").columns.front(), "workload");
  EXPECT_THROW(figure_schema("fig3"), std::logic_error);
  EXPECT_THROW(table_schema("table2"), std::logic_error);
}

// The exact CSV header each figure bench emits with --csv. One case per
// paper artifact; a mismatch means a plotting-script interface break.
TEST(FigureSchemas, GoldenFig1Header) {
  EXPECT_EQ(figure_schema("fig1").csv_header(),
            (Header{"workload", "dram-only:static", "dram-only:dynamic",
                    "dram-only:pagefault", "dram-only:total"}));
}

TEST(FigureSchemas, GoldenFig2aHeader) {
  EXPECT_EQ(figure_schema("fig2a").csv_header(),
            (Header{"workload", "clock-dwf:static", "clock-dwf:dynamic",
                    "clock-dwf:migration", "clock-dwf:total"}));
}

TEST(FigureSchemas, GoldenFig2bHeader) {
  EXPECT_EQ(figure_schema("fig2b").csv_header(),
            (Header{"workload", "clock-dwf:requests", "clock-dwf:migration",
                    "clock-dwf:total"}));
}

TEST(FigureSchemas, GoldenFig2cHeader) {
  EXPECT_EQ(figure_schema("fig2c").csv_header(),
            (Header{"workload", "clock-dwf:pagefault", "clock-dwf:migration",
                    "clock-dwf:demand", "clock-dwf:total"}));
}

TEST(FigureSchemas, GoldenFig4aHeader) {
  EXPECT_EQ(figure_schema("fig4a").csv_header(),
            (Header{"workload", "clock-dwf:static", "clock-dwf:dynamic",
                    "clock-dwf:migration", "clock-dwf:total", "two-lru:static",
                    "two-lru:dynamic", "two-lru:migration", "two-lru:total"}));
}

TEST(FigureSchemas, GoldenFig4bHeader) {
  EXPECT_EQ(
      figure_schema("fig4b").csv_header(),
      (Header{"workload", "clock-dwf:pagefault", "clock-dwf:migration",
              "clock-dwf:demand", "clock-dwf:total", "two-lru:pagefault",
              "two-lru:migration", "two-lru:demand", "two-lru:total"}));
}

TEST(FigureSchemas, GoldenFig4cHeader) {
  EXPECT_EQ(figure_schema("fig4c").csv_header(),
            (Header{"workload", "two-lru:requests", "two-lru:migration",
                    "two-lru:total"}));
}

TEST(FigureSchemas, GoldenTable1Columns) {
  EXPECT_EQ(table_schema("table1").columns,
            (Header{"workload", "PHitDRAM", "PHitNVM", "PMiss", "PWDRAM",
                    "PWNVM", "PMigD", "PMigN", "PDiskToD"}));
}

TEST(FigureSchemas, GoldenTable3Columns) {
  EXPECT_EQ(table_schema("table3").columns,
            (Header{"Workload", "Working Set (KB)", "# Reads", "# Writes",
                    "read %", "write %", "write-dominant pages"}));
}

// bench_sampled_frontier's export: the accuracy-vs-overhead frontier of
// the sampled-hotness policy against the omniscient baselines.
TEST(FigureSchemas, GoldenSampledFrontierColumns) {
  EXPECT_EQ(table_schema("sampled-frontier").columns,
            (Header{"workload", "policy", "variant", "sample_period",
                    "ring_capacity", "migration_budget", "drain_period",
                    "amat_total_ns", "amat_vs_two_lru", "appr_total_nj",
                    "nvm_writes_total", "promotions", "demotions",
                    "sample_drops", "migration_backlog"}));
}

// bench_analytic's export: closed-form predictions against exhaustive
// simulation over a threshold/window grid, with predicted-vs-simulated
// rank columns for the frontier comparison.
TEST(FigureSchemas, GoldenAnalyticFrontierColumns) {
  EXPECT_EQ(table_schema("analytic-frontier").columns,
            (Header{"workload", "policy", "variant", "read_threshold",
                    "write_threshold", "read_perc", "write_perc",
                    "predicted_amat_ns", "simulated_amat_ns", "amat_rel_err",
                    "predicted_hit_ratio", "simulated_hit_ratio",
                    "predicted_rank", "simulated_rank", "in_top3_both"}));
}

// bench_tenants' exports: the per-cell multi-tenant fairness/isolation
// grid and the per-epoch churn timeline of one cell.
TEST(FigureSchemas, GoldenTenantFairnessColumns) {
  EXPECT_EQ(table_schema("tenant-fairness").columns,
            (Header{"workload", "policy", "budget_mode", "shards", "tenants",
                    "seed", "accesses", "amat_total_ns", "amat_p50_ns",
                    "amat_p95_ns", "amat_p99_ns", "jain_index",
                    "victim_retention", "victim_retention_solo",
                    "retention_delta", "nvm_writes_total", "reconfigurations",
                    "reconfig_evictions", "visible_latency_ns"}));
}

TEST(FigureSchemas, GoldenTenantTimelineColumns) {
  EXPECT_EQ(table_schema("tenant-timeline").columns,
            (Header{"workload", "policy", "budget_mode", "shards", "epoch",
                    "end_access", "active_tenants", "arrivals", "departures",
                    "amat_total_ns", "amat_p95_ns", "jain_index",
                    "dram_resident", "nvm_resident", "reconfigurations"}));
}

// The flat RunResult CSV projection the sweep runner splices into its
// export (src/sim/results_io). 28 columns, stable order.
TEST(FigureSchemas, GoldenRunResultCsvHeader) {
  EXPECT_EQ(csv_header(),
            (Header{"workload",
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
                    "nvm_writes_total"}));
}

// make_table() must honor the schema verbatim (title and shape), so a bench
// built from the registry cannot drift from the pinned headers above.
TEST(FigureSchemas, MakeTableMatchesSchemaShape) {
  for (const auto& s : figure_schemas()) {
    const FigureTable table = s.make_table();
    EXPECT_EQ(table.title(), s.title);
    EXPECT_EQ(table.components(), s.components);
    EXPECT_EQ(table.series(), s.series);
    EXPECT_EQ(table.csv_header(), s.csv_header());
  }
}

}  // namespace
}  // namespace hymem::sim
