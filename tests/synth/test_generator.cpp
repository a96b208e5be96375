#include "synth/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "trace/trace_stats.hpp"

namespace hymem::synth {
namespace {

GeneratorOptions small_options() {
  GeneratorOptions o;
  o.seed = 99;
  return o;
}

WorkloadProfile tiny_profile() {
  WorkloadProfile p;
  p.name = "tiny";
  p.working_set_kb = 256;  // 64 pages
  p.reads = 5000;
  p.writes = 2000;
  p.zipf_alpha = 0.8;
  p.hot_fraction = 0.25;
  p.hot_locality = 0.8;
  p.scan_fraction = 0.05;
  p.burst_prob = 0.1;
  p.burst_mean = 4;
  p.write_page_fraction = 0.4;
  p.write_locality = 0.7;
  return p;
}

TEST(Generator, ExactReadWriteCounts) {
  const auto trace = generate(tiny_profile(), small_options());
  EXPECT_EQ(trace.size(), 7000u);
  EXPECT_EQ(trace.read_count(), 5000u);
  EXPECT_EQ(trace.write_count(), 2000u);
}

TEST(Generator, ExactFootprint) {
  const auto profile = tiny_profile();
  const auto trace = generate(profile, small_options());
  const auto stats = trace::characterize(trace, 4096);
  EXPECT_EQ(stats.distinct_pages, profile.footprint_pages(4096));
  EXPECT_EQ(stats.working_set_kb(), profile.working_set_kb);
}

TEST(Generator, RecordsTheFootprintItCounted) {
  for (const bool full : {true, false}) {
    GeneratorOptions options = small_options();
    options.ensure_full_footprint = full;
    const auto trace = generate(tiny_profile(), options);
    const auto stats = trace::characterize(trace, options.page_size);
    EXPECT_EQ(trace.recorded_footprint(options.page_size),
              stats.distinct_pages)
        << "full footprint " << full;
    EXPECT_FALSE(trace.recorded_footprint(2 * options.page_size));
  }
}

TEST(Generator, DeterministicForSameSeed) {
  const auto a = generate(tiny_profile(), small_options());
  const auto b = generate(tiny_profile(), small_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorOptions o1 = small_options(), o2 = small_options();
  o2.seed = 1234;
  const auto a = generate(tiny_profile(), o1);
  const auto b = generate(tiny_profile(), o2);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += (a[i] == b[i]);
  EXPECT_LT(same, a.size() / 2);
}

TEST(Generator, AddressesLineAlignedWithinFootprint) {
  const auto profile = tiny_profile();
  const auto opts = small_options();
  const auto trace = generate(profile, opts);
  const Addr limit = profile.footprint_pages(4096) * 4096;
  for (const auto& a : trace) {
    ASSERT_LT(a.addr, limit);
    ASSERT_EQ(a.addr % opts.line_size, 0u);
  }
}

TEST(Generator, PopularitySkewFollowsZipf) {
  // With strong locality, the busiest decile of pages should absorb well
  // over its proportional share of accesses.
  auto profile = tiny_profile();
  profile.reads = 50000;
  profile.writes = 0;
  profile.zipf_alpha = 1.2;
  const auto trace = generate(profile, small_options());
  trace::TraceCharacterizer c(4096);
  c.observe(trace);
  const auto ranked = c.ranked_pages();
  const std::size_t decile = ranked.size() / 10;
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < decile; ++i) top += ranked[i].second.total();
  EXPECT_GT(static_cast<double>(top) / static_cast<double>(trace.size()), 0.3);
}

TEST(Generator, WriteBiasConcentratesWrites) {
  auto profile = tiny_profile();
  profile.reads = 20000;
  profile.writes = 20000;
  profile.write_page_fraction = 0.2;
  profile.write_locality = 0.9;
  const auto trace = generate(profile, small_options());
  trace::TraceCharacterizer c(4096);
  c.observe(trace);
  const auto stats = c.stats();
  // Some pages must be write-dominant, but not all.
  EXPECT_GT(stats.write_dominant_pages, 0u);
  EXPECT_LT(stats.write_dominant_pages, stats.distinct_pages);
}

TEST(Generator, ReadOnlyProfileProducesNoWrites) {
  auto profile = tiny_profile();
  profile.writes = 0;
  const auto trace = generate(profile, small_options());
  EXPECT_EQ(trace.write_count(), 0u);
}

TEST(Generator, FewerAccessesThanPagesStillExact) {
  auto profile = tiny_profile();
  profile.reads = 40;  // fewer than 64 pages
  profile.writes = 10;
  const auto trace = generate(profile, small_options());
  EXPECT_EQ(trace.size(), 50u);
  const auto stats = trace::characterize(trace, 4096);
  // Cannot touch 64 pages with 50 accesses; coverage is bounded by size.
  EXPECT_EQ(stats.distinct_pages, 50u);
}

TEST(Generator, ChurnChangesHotSetOverTime) {
  auto profile = tiny_profile();
  profile.reads = 40000;
  profile.writes = 0;
  profile.churn_period = 5000;
  profile.churn_shift = 0.5;
  profile.hot_locality = 0.9;
  profile.scan_fraction = 0.0;
  const auto trace = generate(profile, small_options());
  // Compare the popular pages of the first and last quarter.
  trace::TraceCharacterizer head(4096), tail(4096);
  for (std::size_t i = 0; i < trace.size() / 4; ++i) head.observe(trace[i]);
  for (std::size_t i = 3 * trace.size() / 4; i < trace.size(); ++i) {
    tail.observe(trace[i]);
  }
  const auto top = [](const trace::TraceCharacterizer& c) {
    auto ranked = c.ranked_pages();
    ranked.resize(std::min<std::size_t>(ranked.size(), 5));
    std::set<PageId> pages;
    for (const auto& [page, prof] : ranked) pages.insert(page);
    return pages;
  };
  const auto head_top = top(head);
  const auto tail_top = top(tail);
  std::size_t overlap = 0;
  for (PageId p : head_top) overlap += tail_top.count(p);
  EXPECT_LT(overlap, head_top.size()) << "hot set never rotated";
}

TEST(Generator, RejectsBadOptions) {
  GeneratorOptions o;
  o.line_size = 0;
  EXPECT_THROW(generate(tiny_profile(), o), std::logic_error);
  o = GeneratorOptions{};
  o.line_size = 8192;  // larger than page
  EXPECT_THROW(generate(tiny_profile(), o), std::logic_error);
}

}  // namespace
}  // namespace hymem::synth
