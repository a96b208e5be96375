// Multi-tenant serving harness: replays interleaved tenant-churn streams
// through a TenantGroup and reports fairness and isolation per arbitration
// mode.
//
//   $ bench_tenants [--scale 8] [--seed 42] [--jobs N] [--timeline PATH]
//
// Two scenarios (see src/synth/tenant_stream):
//   * kv-churn        — GUPS/Zipf-KV tenants with scheduled departures,
//     re-arrivals and a flash crowd; the victim (tenant 0) stays admitted
//     throughout so its hot-set retention is always defined.
//   * scan-antagonist — a steady four-tenant mix where tenant 1 is a
//     sequential scanner with double the request rate: the classic
//     isolation attack against tenant 0's GUPS hot set.
//
// Each scenario runs over a (policy x budget-mode x shard-count) grid, and
// every cell also replays a victim-only solo stream under the same group
// configuration: victim_retention_solo is the no-competition baseline, so
// retention_delta = solo - mixed is the isolation cost of sharing.
//
// Emits the "tenant-fairness" CSV (see sim/figure_schemas) on stdout, one
// row per cell in fixed grid order; --timeline PATH writes the spliced
// "tenant-timeline" per-epoch CSV. Stdout and the timeline file are
// byte-identical for every --jobs value: cells are independent
// deterministic replays fanned out over a pool, written back by index.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "model/endurance_model.hpp"
#include "sim/figure_schemas.hpp"
#include "synth/tenant_stream.hpp"
#include "tenant/tenant_group.hpp"
#include "util/csv.hpp"

using namespace hymem;

namespace {

struct Scenario {
  synth::TenantChurnSpec mixed;
  synth::TenantChurnSpec solo;  ///< Victim-only baseline, same seed.
};

synth::TenantChurnSpec solo_of(const synth::TenantChurnSpec& mixed) {
  synth::TenantChurnSpec solo;
  solo.name = mixed.name + "-solo";
  solo.tenants = {mixed.tenants.front()};
  solo.initial_active = 1;
  // Roughly the victim's share of the mixed stream: enough to populate the
  // hot set, cheap enough to ride along in every cell.
  solo.total_accesses = mixed.total_accesses / 4;
  solo.seed = mixed.seed;
  return solo;
}

std::vector<Scenario> make_scenarios(std::uint64_t accesses,
                                     std::uint64_t seed) {
  std::vector<Scenario> scenarios;

  // kv-churn: victim + KV/GUPS mix with scripted churn. Only scheduled
  // events and the flash crowd move tenants, so the victim never departs
  // and the stream is readable from the spec alone.
  {
    synth::TenantChurnSpec spec;
    spec.name = "kv-churn";
    spec.tenants = {
        {synth::TenantWorkloadKind::kGupsHotset, 64, 0.25, 0.9, 0.99, 0.25, 1},
        {synth::TenantWorkloadKind::kZipfKv, 192, 0.1, 0.9, 0.99, 0.1, 1},
        {synth::TenantWorkloadKind::kZipfKv, 128, 0.1, 0.9, 1.1, 0.3, 1},
        {synth::TenantWorkloadKind::kGupsHotset, 96, 0.1, 0.8, 0.99, 0.5, 1},
        {synth::TenantWorkloadKind::kZipfKv, 160, 0.1, 0.9, 0.8, 0.1, 1},
        {synth::TenantWorkloadKind::kZipfKv, 96, 0.1, 0.9, 0.99, 0.1, 1},
    };
    spec.total_accesses = accesses;
    spec.initial_active = 3;
    spec.rearrival = true;
    spec.schedule = {
        {accesses * 3 / 10, 1, false},  // t1 departs
        {accesses * 4 / 10, 3, true},   // t3 arrives
        {accesses * 55 / 100, 2, false},  // t2 departs
    };
    spec.flash_at = accesses * 7 / 10;
    spec.flash_arrivals = 3;  // t4, t5, then t1 re-arrives.
    spec.seed = seed;
    scenarios.push_back({spec, solo_of(spec)});
  }

  // scan-antagonist: steady membership, tenant 1 sweeps a footprint ~5x the
  // DRAM budget at double rate. Isolation shows up as the victim keeping
  // (or losing) its hot set.
  {
    synth::TenantChurnSpec spec;
    spec.name = "scan-antagonist";
    spec.tenants = {
        {synth::TenantWorkloadKind::kGupsHotset, 64, 0.25, 0.95, 0.99, 0.2, 1},
        {synth::TenantWorkloadKind::kScan, 512, 0.05, 0.9, 0.99, 0.2, 2},
        {synth::TenantWorkloadKind::kZipfKv, 128, 0.1, 0.9, 0.99, 0.1, 1},
        {synth::TenantWorkloadKind::kZipfKv, 96, 0.1, 0.9, 0.99, 0.1, 1},
    };
    spec.total_accesses = accesses;
    spec.initial_active = 4;
    spec.seed = seed;
    scenarios.push_back({spec, solo_of(spec)});
  }
  return scenarios;
}

struct Cell {
  const Scenario* scenario = nullptr;
  tenant::TenantGroupConfig config;
};

struct CellOutput {
  bool ok = false;
  std::string error;
  tenant::TenantGroupResult result;
  double victim_retention = 0.0;
  double victim_retention_solo = 0.0;
};

/// Replays a stream op-by-op (run() would too, but the retention probe must
/// land before finish() tears the epoch state down).
tenant::TenantGroupResult replay(const synth::TenantStream& stream,
                                 const tenant::TenantGroupConfig& config,
                                 double* victim_retention) {
  tenant::TenantGroup group(config);
  for (const synth::TenantOp& op : stream.ops) group.apply(op);
  const std::vector<PageId> hot = stream.hot_pages(0);
  *victim_retention = group.hot_set_dram_retention(0, hot);
  return group.finish(stream.name);
}

CellOutput run_cell(const Cell& cell) {
  CellOutput out;
  try {
    const synth::TenantStream mixed =
        synth::generate_tenant_stream(cell.scenario->mixed);
    out.result = replay(mixed, cell.config, &out.victim_retention);
    const synth::TenantStream solo =
        synth::generate_tenant_stream(cell.scenario->solo);
    tenant::TenantGroupConfig solo_config = cell.config;
    solo_config.epoch_accesses = 0;  // Only the mixed run feeds the timeline.
    (void)replay(solo, solo_config, &out.victim_retention_solo);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/8,
                                     bench::SharedFlags::kTimeline);
  const std::uint64_t accesses =
      std::max<std::uint64_t>(160000 / std::max<std::uint64_t>(ctx.scale, 1),
                              2000);
  const auto scenarios = make_scenarios(accesses, ctx.seed);

  // The grid, in output order: scenario-major, then policy, then
  // (budget mode, shard count). kSharedQueue runs one instance by
  // definition, so it appears once.
  const std::vector<std::string> policies = {"two-lru", "clock-dwf"};
  const std::vector<std::pair<tenant::BudgetMode, unsigned>> modes = {
      {tenant::BudgetMode::kStaticEqual, 1},
      {tenant::BudgetMode::kStaticEqual, 2},
      {tenant::BudgetMode::kDemandProportional, 1},
      {tenant::BudgetMode::kDemandProportional, 2},
      {tenant::BudgetMode::kSharedQueue, 1},
  };
  std::vector<Cell> cells;
  for (const Scenario& scenario : scenarios) {
    for (const std::string& policy : policies) {
      for (const auto& [mode, shards] : modes) {
        Cell cell;
        cell.scenario = &scenario;
        cell.config.policy = policy;
        cell.config.budget_mode = mode;
        cell.config.shards = shards;
        cell.config.dram_frames = 96;
        cell.config.nvm_frames = 768;
        cell.config.rebalance_period = 2048;
        if (!ctx.timeline.empty()) {
          cell.config.epoch_accesses = ctx.timeline_epoch;
        }
        cells.push_back(std::move(cell));
      }
    }
  }

  // Fan the cells out; outputs land by index so stdout order (and bytes)
  // never depends on --jobs.
  std::vector<CellOutput> outputs(cells.size());
  {
    runner::ThreadPool pool(std::max(1u, ctx.jobs));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      pool.submit([&cells, &outputs, i] { outputs[i] = run_cell(cells[i]); });
    }
    pool.wait_idle();
  }

  CsvWriter csv(std::cout);
  csv.write_row(sim::table_schema("tenant-fairness").columns);
  unsigned failures = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const CellOutput& out = outputs[i];
    if (!out.ok) {
      ++failures;
      std::cerr << "FAILED " << cell.scenario->mixed.name << "/"
                << cell.config.policy << "/"
                << tenant::to_string(cell.config.budget_mode) << "/s"
                << cell.config.shards << ": " << out.error << "\n";
      continue;
    }
    const auto& r = out.result;
    csv.write_row(
        {r.workload, r.policy, tenant::to_string(cell.config.budget_mode),
         u64(cell.config.shards), u64(r.tenants.size()), u64(ctx.seed),
         u64(r.accesses), fmt_double(r.amat().total()),
         fmt_double(r.fairness.amat_p50_ns), fmt_double(r.fairness.amat_p95_ns),
         fmt_double(r.fairness.amat_p99_ns), fmt_double(r.fairness.jain_index),
         fmt_double(out.victim_retention),
         fmt_double(out.victim_retention_solo),
         fmt_double(out.victim_retention_solo - out.victim_retention),
         u64(model::nvm_writes(r.totals).total()), u64(r.reconfigurations),
         u64(r.reconfig_evictions), fmt_double(r.visible_latency_ns)});
  }

  if (!ctx.timeline.empty()) {
    std::ofstream timeline(ctx.timeline, std::ios::binary);
    if (!timeline) {
      std::cerr << "cannot open --timeline path: " << ctx.timeline << "\n";
      return 1;
    }
    CsvWriter rows(timeline);
    rows.write_row(sim::table_schema("tenant-timeline").columns);
    std::size_t count = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      const CellOutput& out = outputs[i];
      if (!out.ok) continue;
      for (const tenant::TenantEpochRecord& e : out.result.timeline) {
        rows.write_row({out.result.workload, out.result.policy,
                        tenant::to_string(cell.config.budget_mode),
                        u64(cell.config.shards), u64(e.epoch),
                        u64(e.end_access), u64(e.active_tenants),
                        u64(e.arrivals), u64(e.departures),
                        fmt_double(e.amat_total_ns),
                        fmt_double(e.fairness.amat_p95_ns),
                        fmt_double(e.fairness.jain_index),
                        u64(e.dram_resident), u64(e.nvm_resident),
                        u64(e.reconfigurations)});
        ++count;
      }
    }
    std::cerr << "tenant-timeline: " << count << " epoch rows (epoch "
              << ctx.timeline_epoch << ") -> " << ctx.timeline << "\n";
  }

  std::cerr << "tenants: " << cells.size() << " cells, "
            << std::max(1u, ctx.jobs) << " worker(s)\n";
  return failures == 0 ? 0 : 1;
}
