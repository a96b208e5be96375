// Workload characterization — regenerates the paper's Table III columns
// (working-set size, read/write counts and percentages) plus the per-page
// popularity data the migration analysis leans on.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/trace.hpp"
#include "util/histogram.hpp"

namespace hymem::trace {

/// Per-page access counters.
struct PageProfile {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  std::uint64_t total() const { return reads + writes; }
  /// Fraction of accesses that are writes (0 when untouched).
  double write_ratio() const {
    return total() ? static_cast<double>(writes) / static_cast<double>(total()) : 0.0;
  }
};

/// Summary statistics of one trace at a given page size.
struct TraceStats {
  std::uint64_t page_size = 0;
  std::uint64_t accesses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t distinct_pages = 0;  ///< Footprint in pages.

  /// Working-set size in KB: distinct_pages * page_size / 1024 — the paper's
  /// Table III "Working Set Size (KB)" column.
  std::uint64_t working_set_kb() const;

  double read_fraction() const {
    return accesses ? static_cast<double>(reads) / static_cast<double>(accesses) : 0.0;
  }
  double write_fraction() const {
    return accesses ? static_cast<double>(writes) / static_cast<double>(accesses) : 0.0;
  }

  /// Distribution of per-page access counts (popularity skew).
  Log2Histogram accesses_per_page;
  /// Pages whose accesses are >= 50% writes.
  std::uint64_t write_dominant_pages = 0;
};

/// Full characterization: summary stats plus the per-page table.
class TraceCharacterizer {
 public:
  explicit TraceCharacterizer(std::uint64_t page_size);

  /// Streams one access into the counters.
  void observe(const MemAccess& access);
  /// Streams a whole trace.
  void observe(const Trace& trace);

  /// Finalizes and returns the summary.
  TraceStats stats() const;

  /// Per-page profiles (page -> counters).
  const std::unordered_map<PageId, PageProfile>& pages() const { return pages_; }

  /// Pages sorted by total access count, descending (popularity ranking).
  std::vector<std::pair<PageId, PageProfile>> ranked_pages() const;

 private:
  std::uint64_t page_size_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::unordered_map<PageId, PageProfile> pages_;
};

/// One-shot convenience.
TraceStats characterize(const Trace& trace, std::uint64_t page_size);

/// The trace's footprint in pages: characterize(trace, page_size)
/// .distinct_pages. Answered from the trace's footprint record when it
/// holds one at `page_size` (every synth::generate trace does), else
/// counted in a util::FlatPageSet without the per-page profiles. The
/// memory-sizing pass of every run (Section V.A).
std::uint64_t distinct_pages(const Trace& trace, std::uint64_t page_size);

}  // namespace hymem::trace
