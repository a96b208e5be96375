// Timeline export: the epoch series as CSV (one row per epoch) and JSON.
//
// The CSV column list is registered in the sim::figure_schemas registry
// (id "timeline") and pinned by the same golden-header tests as every
// other paper artifact, so plotting scripts can rely on it; the JSON
// writer shares util::json_escape with every other JSON emitter.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/epoch.hpp"

namespace hymem::obs {

/// Epoch-level CSV columns (no job identity; the sweep runner prefixes
/// workload/policy/variant/seed when splicing multi-job timelines).
const std::vector<std::string>& timeline_csv_header();

/// Appends one epoch's row to `row`, without a newline: its values aligned
/// with timeline_csv_header(), comma-separated. Counts print as integers,
/// means and model outputs as %.12g (what std::setprecision(12) streams);
/// no value needs CSV quoting.
void append_timeline_csv_row(const EpochRecord& record, std::string& row);

/// Header plus one row per epoch.
void write_timeline_csv(const Timeline& timeline, std::ostream& out);

/// {"epoch_length": N, "workload": ..., "policy": ..., "epochs": [...]}.
/// `workload`/`policy` tag the series (escaped; omitted when empty).
void write_timeline_json(const Timeline& timeline, std::ostream& out,
                         std::string_view workload = {},
                         std::string_view policy = {});

}  // namespace hymem::obs
