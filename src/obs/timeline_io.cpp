#include "obs/timeline_io.hpp"

#include <charconv>
#include <cstdint>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace hymem::obs {

namespace {

void append_number(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, end);
}

/// %.12g, the bytes `std::ostream << std::setprecision(12)` writes.
void append_number(std::string& out, double value) {
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general,
                    12)
          .ptr;
  out.append(buf, end);
}

/// The one column projection: passes each timeline_csv_header() column of
/// `r`, in order, to `put` as a std::uint64_t or a double.
template <typename Put>
void project(const EpochRecord& r, Put&& put) {
  put(r.epoch);
  put(r.end_access);
  put(r.delta.accesses);
  put(r.delta.dram_read_hits);
  put(r.delta.dram_write_hits);
  put(r.delta.nvm_read_hits);
  put(r.delta.nvm_write_hits);
  put(r.delta.page_faults);
  put(r.delta.fills_to_dram);
  put(r.delta.fills_to_nvm);
  put(r.delta.migrations_to_dram);
  put(r.delta.migrations_to_nvm);
  put(r.delta.dirty_evictions);
  put(r.dram_resident);
  put(r.nvm_resident);
  put(r.read_window.pages);
  put(r.read_window.target);
  put(r.read_window.mean_counter());
  put(r.write_window.pages);
  put(r.write_window.target);
  put(r.write_window.mean_counter());
  put(r.read_threshold);
  put(r.write_threshold);
  put(r.promotions);
  put(r.demotions);
  put(r.throttled_promotions);
  put(r.amat_total_ns);
  put(r.appr_total_nj);
  put(r.mean_visible_latency_ns);
  put(r.samples);
  put(r.sample_drops);
  put(r.coolings);
  put(r.sampled_promotions);
  put(r.sampled_demotions);
  put(r.sampled_stale);
  put(r.migration_backlog);
  put(r.hot_ring_hwm);
  put(r.cold_ring_hwm);
}

}  // namespace

const std::vector<std::string>& timeline_csv_header() {
  static const std::vector<std::string> header = {
      "epoch",
      "end_access",
      "accesses",
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
      "dram_resident",
      "nvm_resident",
      "read_window_pages",
      "read_window_target",
      "read_counter_mean",
      "write_window_pages",
      "write_window_target",
      "write_counter_mean",
      "read_threshold",
      "write_threshold",
      "promotions",
      "demotions",
      "throttled_promotions",
      "amat_total_ns",
      "appr_total_nj",
      "mean_visible_latency_ns",
      "samples",
      "sample_drops",
      "coolings",
      "sampled_promotions",
      "sampled_demotions",
      "sampled_stale",
      "migration_backlog",
      "hot_ring_hwm",
      "cold_ring_hwm"};
  return header;
}

void append_timeline_csv_row(const EpochRecord& record, std::string& row) {
  bool first = true;
  project(record, [&](auto value) {
    if (!first) row += ',';
    first = false;
    append_number(row, value);
  });
}

void write_timeline_csv(const Timeline& timeline, std::ostream& out) {
  CsvWriter(out).write_row(timeline_csv_header());
  std::string row;  // reused: one allocation for the whole export
  for (const EpochRecord& record : timeline.epochs) {
    row.clear();
    append_timeline_csv_row(record, row);
    row += '\n';
    out.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

void write_timeline_json(const Timeline& timeline, std::ostream& out,
                         std::string_view workload, std::string_view policy) {
  out << "{\n  \"epoch_length\": " << timeline.epoch_length;
  if (!workload.empty()) {
    out << ",\n  \"workload\": \"" << util::json_escape(workload) << "\"";
  }
  if (!policy.empty()) {
    out << ",\n  \"policy\": \"" << util::json_escape(policy) << "\"";
  }
  out << ",\n  \"epochs\": [";
  const auto& header = timeline_csv_header();
  std::string row;
  for (std::size_t i = 0; i < timeline.epochs.size(); ++i) {
    // The CSV projection keyed by its column names: one schema.
    row.assign(i ? ",\n    {" : "\n    {");
    std::size_t column = 0;
    project(timeline.epochs[i], [&](auto value) {
      if (column) row += ", ";
      row += '"';
      row += util::json_escape(header[column++]);
      row += "\": ";
      append_number(row, value);
    });
    row += '}';
    out << row;
  }
  out << "\n  ]\n}\n";
}

}  // namespace hymem::obs
