#include "trace/trace_stats.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"
#include "util/flat_page_map.hpp"
#include "util/units.hpp"

namespace hymem::trace {

std::uint64_t TraceStats::working_set_kb() const {
  return distinct_pages * page_size / kKiB;
}

TraceCharacterizer::TraceCharacterizer(std::uint64_t page_size)
    : page_size_(page_size) {
  HYMEM_CHECK_MSG(page_size > 0, "page size must be positive");
}

void TraceCharacterizer::observe(const MemAccess& access) {
  auto& profile = pages_[page_of(access.addr, page_size_)];
  if (access.type == AccessType::kRead) {
    ++profile.reads;
    ++reads_;
  } else {
    ++profile.writes;
    ++writes_;
  }
}

void TraceCharacterizer::observe(const Trace& trace) {
  for (const auto& a : trace) observe(a);
}

TraceStats TraceCharacterizer::stats() const {
  TraceStats s;
  s.page_size = page_size_;
  s.reads = reads_;
  s.writes = writes_;
  s.accesses = reads_ + writes_;
  s.distinct_pages = pages_.size();
  for (const auto& [page, profile] : pages_) {
    s.accesses_per_page.add(profile.total());
    if (profile.write_ratio() >= 0.5 && profile.writes > 0) {
      ++s.write_dominant_pages;
    }
  }
  return s;
}

std::vector<std::pair<PageId, PageProfile>> TraceCharacterizer::ranked_pages() const {
  std::vector<std::pair<PageId, PageProfile>> ranked(pages_.begin(), pages_.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.total() != b.second.total()) return a.second.total() > b.second.total();
    return a.first < b.first;
  });
  return ranked;
}

TraceStats characterize(const Trace& trace, std::uint64_t page_size) {
  TraceCharacterizer c(page_size);
  c.observe(trace);
  return c.stats();
}

std::uint64_t distinct_pages(const Trace& trace, std::uint64_t page_size) {
  HYMEM_CHECK_MSG(page_size > 0, "page size must be positive");
  if (const auto recorded = trace.recorded_footprint(page_size)) {
    return *recorded;
  }
  util::FlatPageSet pages;
  // Decode as TraceBlockSource does: a shift for power-of-two page sizes.
  if (std::has_single_bit(page_size)) {
    const int shift = std::countr_zero(page_size);
    for (const MemAccess& a : trace) pages.insert(a.addr >> shift);
  } else {
    for (const MemAccess& a : trace) pages.insert(page_of(a.addr, page_size));
  }
  return pages.size();
}

}  // namespace hymem::trace
