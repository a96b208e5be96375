#include "obs/timeline_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/figure_schemas.hpp"
#include "util/random.hpp"

namespace hymem::obs {
namespace {

/// One epoch's CSV row, split at its commas.
std::vector<std::string> row_fields(const EpochRecord& record) {
  std::string row;
  append_timeline_csv_row(record, row);
  std::vector<std::string> fields;
  std::istringstream in(row);
  for (std::string field; std::getline(in, field, ',');) {
    fields.push_back(field);
  }
  return fields;
}

/// Index of `name` in timeline_csv_header().
std::size_t column(const std::string& name) {
  const auto& header = timeline_csv_header();
  return static_cast<std::size_t>(
      std::find(header.begin(), header.end(), name) - header.begin());
}

EpochRecord sample_record() {
  EpochRecord r;
  r.epoch = 2;
  r.end_access = 3000;
  r.delta.accesses = 1000;
  r.delta.dram_read_hits = 600;
  r.delta.nvm_read_hits = 300;
  r.delta.page_faults = 100;
  r.dram_resident = 3;
  r.nvm_resident = 21;
  r.read_window.target = 5;
  r.read_window.pages = 4;
  r.read_window.counter_sum = 12;
  r.read_threshold = 6;
  r.promotions = 7;
  r.amat_total_ns = 123.5;
  r.samples = 42;
  r.sampled_promotions = 9;
  r.migration_backlog = 5;
  return r;
}

TEST(TimelineIo, GoldenHeader) {
  // Pinned column list: plotting scripts and the figure-schema registry
  // depend on these exact names in this exact order.
  const std::vector<std::string> expected = {
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
  EXPECT_EQ(timeline_csv_header(), expected);
}

TEST(TimelineIo, FieldsAlignWithHeader) {
  EXPECT_EQ(row_fields(sample_record()).size(), timeline_csv_header().size());
}

TEST(TimelineIo, TableSchemaComposesJobIdentityPlusEpochColumns) {
  const auto& schema = sim::table_schema("timeline");
  std::vector<std::string> expected = {"workload", "policy", "variant", "seed"};
  const auto& epoch_columns = timeline_csv_header();
  expected.insert(expected.end(), epoch_columns.begin(), epoch_columns.end());
  EXPECT_EQ(schema.columns, expected);
}

TEST(TimelineIo, CsvHasHeaderAndOneRowPerEpoch) {
  Timeline timeline;
  timeline.epoch_length = 1000;
  timeline.epochs = {sample_record(), sample_record(), sample_record()};
  std::ostringstream out;
  write_timeline_csv(timeline, out);
  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("epoch,end_access,accesses,", 0), 0u);
  EXPECT_EQ(lines[1].rfind("2,3000,1000,600,", 0), 0u);
}

TEST(TimelineIo, WindowMeanUsesPopulationNotTarget) {
  const EpochRecord r = sample_record();
  // 12 counter sum over 4 pages in the window -> mean 3.
  EXPECT_DOUBLE_EQ(r.read_window.mean_counter(), 3.0);
  EXPECT_EQ(row_fields(r).at(column("read_counter_mean")), "3");
}

TEST(TimelineIo, SampledColumnsCarryRecordValues) {
  const auto fields = row_fields(sample_record());
  const auto& header = timeline_csv_header();
  ASSERT_EQ(fields.size(), header.size());
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "samples") {
      EXPECT_EQ(fields[i], "42");
    } else if (header[i] == "sampled_promotions") {
      EXPECT_EQ(fields[i], "9");
    } else if (header[i] == "migration_backlog") {
      EXPECT_EQ(fields[i], "5");
    } else if (header[i] == "sample_drops") {
      EXPECT_EQ(fields[i], "0");
    }
  }
}

TEST(TimelineIo, JsonCarriesTagsAndEpochObjects) {
  Timeline timeline;
  timeline.epoch_length = 512;
  timeline.epochs = {sample_record()};
  std::ostringstream out;
  write_timeline_json(timeline, out, "can\"neal", "two-lru");
  const std::string json = out.str();
  EXPECT_NE(json.find("\"epoch_length\": 512"), std::string::npos) << json;
  EXPECT_NE(json.find("\"workload\": \"can\\\"neal\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"policy\": \"two-lru\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"end_access\": 3000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"amat_total_ns\": 123.5"), std::string::npos) << json;
}

// Doubles print through std::to_chars; the bytes must stay those of
// `std::ostream << std::setprecision(12)`, which the goldens were made with.
TEST(TimelineIo, DoublesPrintAsSetprecision12) {
  const auto streamed = [](double value) {
    std::ostringstream os;
    os << std::setprecision(12) << value;
    return os.str();
  };
  const std::size_t amat = column("amat_total_ns");
  const auto check = [&](double value) {
    EpochRecord r;
    r.amat_total_ns = value;
    const std::string got = row_fields(r).at(amat);
    if (got != streamed(value)) {
      ADD_FAILURE() << "bits 0x" << std::hex
                    << std::bit_cast<std::uint64_t>(value) << ": got " << got
                    << ", stream writes " << streamed(value);
    }
  };
  for (const double value :
       {0.0, -0.0, 1.0 / 3.0, 1e-7 / 3.0, 123456789012.5, 1e17, 5e-324,
        DBL_MAX, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    check(value);
  }
  std::uint64_t state = 0x5eed;
  for (int drawn = 0; drawn < 10000;) {
    const double value = std::bit_cast<double>(splitmix64(state));
    if (!std::isfinite(value)) continue;
    check(value);
    ++drawn;
  }
}

TEST(TimelineIo, EmptyTimelineWritesHeaderOnly) {
  Timeline timeline;
  std::ostringstream out;
  write_timeline_csv(timeline, out);
  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  EXPECT_EQ(lines.size(), 1u);
}

}  // namespace
}  // namespace hymem::obs
