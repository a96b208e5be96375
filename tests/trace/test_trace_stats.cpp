#include "trace/trace_stats.hpp"

#include <gtest/gtest.h>

#include "util/random.hpp"

namespace hymem::trace {
namespace {

TEST(TraceStats, CountsReadsWritesAndFootprint) {
  Trace t;
  t.append(0, AccessType::kRead);
  t.append(100, AccessType::kWrite);       // same page as 0
  t.append(4096, AccessType::kRead);       // page 1
  t.append(3 * 4096, AccessType::kWrite);  // page 3
  const TraceStats s = characterize(t, 4096);
  EXPECT_EQ(s.accesses, 4u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.writes, 2u);
  EXPECT_EQ(s.distinct_pages, 3u);
  EXPECT_EQ(s.working_set_kb(), 12u);
  EXPECT_DOUBLE_EQ(s.read_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(s.write_fraction(), 0.5);
}

TEST(TraceStats, WriteDominantPages) {
  Trace t;
  t.append(0, AccessType::kWrite);
  t.append(0, AccessType::kWrite);
  t.append(0, AccessType::kRead);  // page 0: 2/3 writes -> write-dominant
  t.append(4096, AccessType::kRead);
  t.append(4096, AccessType::kRead);  // page 1: read-only
  const TraceStats s = characterize(t, 4096);
  EXPECT_EQ(s.write_dominant_pages, 1u);
}

TEST(TraceStats, PageProfileWriteRatio) {
  PageProfile p;
  EXPECT_DOUBLE_EQ(p.write_ratio(), 0.0);
  p.reads = 3;
  p.writes = 1;
  EXPECT_DOUBLE_EQ(p.write_ratio(), 0.25);
  EXPECT_EQ(p.total(), 4u);
}

TEST(TraceStats, RankedPagesSortedByPopularity) {
  TraceCharacterizer c(4096);
  for (int i = 0; i < 5; ++i) c.observe({0, AccessType::kRead, 0});
  for (int i = 0; i < 9; ++i) c.observe({4096, AccessType::kRead, 0});
  c.observe({8192, AccessType::kWrite, 0});
  const auto ranked = c.ranked_pages();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, 1u);
  EXPECT_EQ(ranked[0].second.total(), 9u);
  EXPECT_EQ(ranked[1].first, 0u);
  EXPECT_EQ(ranked[2].first, 2u);
}

TEST(TraceStats, AccessesPerPageHistogram) {
  TraceCharacterizer c(4096);
  for (int i = 0; i < 4; ++i) c.observe({0, AccessType::kRead, 0});
  c.observe({4096, AccessType::kRead, 0});
  const TraceStats s = c.stats();
  EXPECT_EQ(s.accesses_per_page.total(), 2u);  // two pages
  EXPECT_EQ(s.accesses_per_page.bucket(Log2Histogram::bucket_index(4)), 1u);
  EXPECT_EQ(s.accesses_per_page.bucket(Log2Histogram::bucket_index(1)), 1u);
}

TEST(TraceStats, EmptyTrace) {
  Trace t;
  const TraceStats s = characterize(t, 4096);
  EXPECT_EQ(s.accesses, 0u);
  EXPECT_EQ(s.distinct_pages, 0u);
  EXPECT_DOUBLE_EQ(s.read_fraction(), 0.0);
}

TEST(TraceStats, PageSizeZeroRejected) {
  EXPECT_THROW(TraceCharacterizer(0), std::logic_error);
  EXPECT_THROW(distinct_pages(Trace(), 0), std::logic_error);
}

// The sizing count must be the characterizer's footprint for any trace and
// page size: shift-decoded for powers of two, divided otherwise, including
// page kInvalidPage (page size 1, address 2^64-1), the flat map's sentinel.
TEST(TraceStats, DistinctPagesMatchesCharacterizer) {
  Rng rng(7);
  Trace t;
  for (int i = 0; i < 20000; ++i) {
    // Clustered addresses revisit pages; the odd raw one lands anywhere.
    const Addr addr =
        rng.next_bool(0.9) ? rng.next_below(1 << 24) : rng.next();
    t.append(addr, rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead);
  }
  t.append(~Addr{0}, AccessType::kRead);
  t.append(0, AccessType::kWrite);
  for (const std::uint64_t page_size :
       {std::uint64_t{1}, std::uint64_t{64}, std::uint64_t{3000},
        std::uint64_t{4096}, std::uint64_t{1} << 21, ~std::uint64_t{0}}) {
    EXPECT_EQ(distinct_pages(t, page_size),
              characterize(t, page_size).distinct_pages)
        << "page size " << page_size;
  }
  EXPECT_EQ(distinct_pages(Trace(), 4096), 0u);
}

TEST(TraceStats, DistinctPagesAnswersFromTheRecordAtItsPageSize) {
  Trace t;
  t.append(0x0000, AccessType::kRead);
  t.append(0x1000, AccessType::kRead);
  t.append(0x3000, AccessType::kWrite);
  // A deliberately wrong record shows which answer is returned.
  t.record_footprint(4096, 99);
  EXPECT_EQ(distinct_pages(t, 4096), 99u);
  EXPECT_EQ(distinct_pages(t, 8192), 2u);
  t.append(0x4000, AccessType::kRead);
  EXPECT_EQ(distinct_pages(t, 4096), 4u);
}

}  // namespace
}  // namespace hymem::trace
