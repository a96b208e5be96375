#include "trace/block_source.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/flat_page_map.hpp"
#include "util/random.hpp"

namespace hymem::trace {
namespace {

constexpr std::uint64_t kPage = 4096;

Trace make_trace(std::size_t n, std::uint64_t seed = 7) {
  Trace trace;
  trace.set_name("blocks");
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = splitmix64(state);
    trace.append({(r % 97) * kPage + (r % 64),
                  (r >> 32) % 3 == 0 ? AccessType::kWrite : AccessType::kRead,
                  0});
  }
  return trace;
}

/// Flattens a source into (page, type, hash) triples for comparison.
struct Flat {
  std::vector<PageId> pages;
  std::vector<AccessType> types;
  std::vector<std::uint64_t> hashes;
  std::vector<std::size_t> block_sizes;

  bool operator==(const Flat& other) const {
    return pages == other.pages && types == other.types &&
           hashes == other.hashes;
  }
};

Flat drain(TraceBlockSource& source) {
  Flat flat;
  while (const DecodedBlock* block = source.next()) {
    flat.block_sizes.push_back(block->size);
    for (std::size_t i = 0; i < block->size; ++i) {
      flat.pages.push_back(block->pages[i]);
      flat.types.push_back(block->types[i]);
      flat.hashes.push_back(block->hashes[i]);
    }
  }
  return flat;
}

TEST(TraceBlockSource, WindowsCoverTraceInOrder) {
  const auto trace = make_trace(10);
  TraceBlockSource source(trace, kPage, /*block_accesses=*/3);
  EXPECT_EQ(source.name(), "blocks");
  const Flat flat = drain(source);
  EXPECT_EQ(flat.block_sizes, (std::vector<std::size_t>{3, 3, 3, 1}));
  ASSERT_EQ(flat.pages.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(flat.pages[i], page_of(trace[i].addr, kPage)) << i;
    EXPECT_EQ(flat.types[i], trace[i].type) << i;
    EXPECT_EQ(flat.hashes[i], util::hash_page_id(flat.pages[i])) << i;
  }
  EXPECT_EQ(source.next(), nullptr) << "exhaustion is sticky";
}

TEST(TraceBlockSource, ZeroBlockSizeServesWholeTrace) {
  const auto trace = make_trace(23);
  TraceBlockSource source(trace, kPage, /*block_accesses=*/0);
  const Flat flat = drain(source);
  EXPECT_EQ(flat.block_sizes, (std::vector<std::size_t>{23}));
}

TEST(TraceBlockSource, RewindRepeatsSequence) {
  const auto trace = make_trace(17);
  TraceBlockSource source(trace, kPage, 5);
  const Flat first = drain(source);
  source.rewind();
  const Flat second = drain(source);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.block_sizes, second.block_sizes);
}

TEST(TraceBlockSource, OddPageSizeDecodesByDivision) {
  // Power-of-two page sizes decode with a shift, others with page_of.
  const auto trace = make_trace(100);
  for (const std::uint64_t page_size : {std::uint64_t{1}, std::uint64_t{3000},
                                        std::uint64_t{8192}}) {
    TraceBlockSource source(trace, page_size, 7);
    const Flat flat = drain(source);
    ASSERT_EQ(flat.pages.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(flat.pages[i], page_of(trace[i].addr, page_size))
          << page_size << " at " << i;
    }
  }
}

TEST(TraceBlockSource, EmptyTraceYieldsNoBlocks) {
  Trace trace;
  trace.set_name("empty");
  TraceBlockSource source(trace, kPage, 4);
  EXPECT_EQ(source.next(), nullptr);
  source.rewind();
  EXPECT_EQ(source.next(), nullptr);
}

}  // namespace
}  // namespace hymem::trace
