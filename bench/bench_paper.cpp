// The paper's eight result artifacts from one grid. Figs. 1, 2a-c and 4a-c
// and Table I all compare the same four memories (DRAM-only, NVM-only,
// CLOCK-DWF and the proposed two-LRU scheme) on the 12 Table III workloads
// at the default config, so their 48 cells run once through run_grid and
// every artifact is rendered from those results, in paper order, each under
// its own "### " header.
//
//   $ bench_paper [--scale 64] [--seed 42] [--jobs N] [--csv]
//                 [--timeline PATH [--epoch N]]
//
// --csv adds each figure's rows as CSV after its text table. Stdout is
// byte-identical for every --jobs value; progress and the failure summary
// go to stderr, and a failed cell ends the run with exit code 1 before any
// artifact prints. To read one artifact, cut the output at its header:
//
//   $ bench_paper | awk '/^### /{p = /^### Fig. 4b/} p'
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "model/probabilities.hpp"
#include "sim/figure_schemas.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hymem;

namespace {

/// The grid's policy dimension: the four memories every artifact compares.
enum Memory : std::size_t { kDramOnly, kNvmOnly, kClockDwf, kTwoLru };
const std::vector<std::string> kPolicies = {"dram-only", "nvm-only",
                                            "clock-dwf", "two-lru"};

/// One Table III workload's four results. Grid order is workload-major, so
/// they are the four consecutive jobs starting at `jobs`.
struct Cells {
  const std::string& workload;
  const runner::JobResult* jobs;

  const sim::RunResult& operator[](Memory m) const { return jobs[m].result; }
};

/// What every artifact renders from.
struct Paper {
  const bench::BenchContext& ctx;
  bool csv;
  std::vector<Cells> rows;
};

/// Static / Dynamic / Migration power over a baseline total (Figs. 2a, 4a).
sim::Stack power_stack(const sim::RunResult& result, double base) {
  const auto power = result.appr();
  return sim::Stack{{power.static_nj / base,
                     (power.hit_nj + power.fault_fill_nj) / base,
                     power.migration_nj / base}};
}

/// Read/Write Requests / Migrations over a baseline AMAT (Figs. 2b, 4c).
sim::Stack amat_stack(const sim::RunResult& result, double base) {
  const auto amat = result.amat();
  return sim::Stack{{amat.request_ns() / base, amat.migration_ns / base}};
}

/// Page Fault / Migration / Demand NVM writes over the NVM-only total
/// (Figs. 2c, 4b).
sim::Stack writes_stack(const sim::RunResult& result, const Cells& cells) {
  const auto base = static_cast<double>(cells[kNvmOnly].nvm_writes().total());
  const auto writes = result.nvm_writes();
  return sim::Stack{{static_cast<double>(writes.fault_fill_writes) / base,
                     static_cast<double>(writes.migration_writes) / base,
                     static_cast<double>(writes.demand_writes) / base}};
}

void no_notes(const sim::FigureTable&) {}

/// Prints one stacked figure: its header, the text table with one row of
/// `stacks(cells)` per workload, then `notes(table)` and, with --csv, the
/// rows as CSV.
template <typename Stacks, typename Notes = decltype(&no_notes)>
void figure(const Paper& paper, const std::string& id,
            const std::string& header, Stacks stacks,
            Notes notes = no_notes) {
  bench::print_header(header, paper.ctx);
  sim::FigureTable table = sim::figure_schema(id).make_table();
  for (const Cells& cells : paper.rows) {
    table.add(cells.workload, stacks(cells));
  }
  table.print(std::cout);
  notes(table);
  if (paper.csv) table.print_csv(std::cout);
}

/// Figs. 4a and 4b's summary: the proposed scheme's G-Mean over the
/// baseline the figure normalizes to, and over CLOCK-DWF's.
auto proposed_over(const std::string& baseline) {
  return [baseline](const sim::FigureTable& table) {
    std::cout << "\nproposed / " << baseline
              << " (G-Mean): " << table.geomean_total(1) << "\n";
    table.print_geomean_ratio(std::cout, "proposed / CLOCK-DWF (G-Mean)", 1,
                              0);
  };
}

/// Table I: the analytic models' probability parameters per workload for
/// CLOCK-DWF and the proposed scheme, the raw material every figure is
/// computed from, printed so the models' inputs are auditable. False when a
/// row's probabilities do not sum to 1.
bool table1(const Paper& paper) {
  bench::print_header("Table I — model probabilities per workload", paper.ctx);
  for (const Memory memory : {kClockDwf, kTwoLru}) {
    std::cout << "--- " << kPolicies[memory] << " ---\n";
    TextTable table(sim::table_schema("table1").columns);
    for (const Cells& cells : paper.rows) {
      const auto p = model::probabilities(cells[memory].counts);
      if (!p.is_consistent()) {
        std::cerr << "inconsistent probabilities for " << cells.workload
                  << "\n";
        return false;
      }
      table.add_row({cells.workload, TextTable::fmt(p.hit_dram, 4),
                     TextTable::fmt(p.hit_nvm, 4), TextTable::fmt(p.miss, 6),
                     TextTable::fmt(p.write_dram, 4),
                     TextTable::fmt(p.write_nvm, 4),
                     TextTable::fmt(p.mig_to_dram, 6),
                     TextTable::fmt(p.mig_to_nvm, 6),
                     TextTable::fmt(p.disk_to_dram, 4)});
    }
    std::cout << table.to_string() << '\n';
  }
  std::cout << "PHitDRAM + PHitNVM + PMiss = 1 verified for every row.\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/64,
                                     bench::SharedFlags::kTimeline, {"csv"});
  const bool csv = bench::bool_flag(CliArgs(argc, argv), "csv", false);

  const auto profiles = synth::parsec_profiles();
  const auto sweep =
      bench::run_grid({profiles.begin(), profiles.end()}, kPolicies, ctx);
  if (sweep.failures() != 0) return 1;

  Paper paper{ctx, csv, {}};
  for (std::size_t w = 0; w < profiles.size(); ++w) {
    paper.rows.push_back(
        Cells{profiles[w].name, &sweep.jobs[w * kPolicies.size()]});
  }

  // The expected shape of every artifact, and what this reproduction
  // measures, is in EXPERIMENTS.md under F1-F4c.
  figure(paper, "fig1",
         "Fig. 1 — DRAM-only power breakdown (normalized per workload)",
         [](const Cells& cells) {
           const auto power = cells[kDramOnly].appr();
           const double total = power.total();
           return std::vector<sim::Stack>{
               {{power.static_nj / total, power.hit_nj / total,
                 power.fault_fill_nj / total}}};
         });
  figure(paper, "fig2a", "Fig. 2a — CLOCK-DWF power normalized to DRAM-only",
         [](const Cells& cells) {
           return std::vector<sim::Stack>{power_stack(
               cells[kClockDwf], cells[kDramOnly].appr().total())};
         });
  figure(paper, "fig2b", "Fig. 2b — CLOCK-DWF AMAT normalized to DRAM-only",
         [](const Cells& cells) {
           return std::vector<sim::Stack>{amat_stack(
               cells[kClockDwf], cells[kDramOnly].amat().total())};
         });
  // CLOCK-DWF never serves a demand write from NVM, so its demand part is
  // 0 in Figs. 2c and 4b.
  figure(paper, "fig2c",
         "Fig. 2c — CLOCK-DWF NVM writes normalized to NVM-only",
         [](const Cells& cells) {
           return std::vector<sim::Stack>{
               writes_stack(cells[kClockDwf], cells)};
         });
  figure(
      paper, "fig4a",
      "Fig. 4a — power of CLOCK-DWF vs proposed, normalized to DRAM-only",
      [](const Cells& cells) {
        const double base = cells[kDramOnly].appr().total();
        return std::vector<sim::Stack>{power_stack(cells[kClockDwf], base),
                                       power_stack(cells[kTwoLru], base)};
      },
      proposed_over("DRAM-only"));
  figure(
      paper, "fig4b",
      "Fig. 4b — NVM writes of CLOCK-DWF vs proposed, normalized to NVM-only",
      [](const Cells& cells) {
        return std::vector<sim::Stack>{writes_stack(cells[kClockDwf], cells),
                                       writes_stack(cells[kTwoLru], cells)};
      },
      proposed_over("NVM-only"));
  figure(
      paper, "fig4c", "Fig. 4c — proposed AMAT normalized to CLOCK-DWF",
      [](const Cells& cells) {
        return std::vector<sim::Stack>{
            amat_stack(cells[kTwoLru], cells[kClockDwf].amat().total())};
      },
      [](const sim::FigureTable& table) {
        std::cout << "\nproposed / CLOCK-DWF AMAT (G-Mean): "
                  << table.geomean_total(0) << "\n";
      });

  return table1(paper) ? 0 : 1;
}
