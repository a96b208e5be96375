#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace hymem::trace {
namespace {

TEST(Trace, StartsEmpty) {
  Trace t("empty");
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.name(), "empty");
}

TEST(Trace, AppendAndIterate) {
  Trace t;
  t.append(0x1000, AccessType::kRead, 1);
  t.append({0x2000, AccessType::kWrite, 2});
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x1000u);
  EXPECT_EQ(t[0].type, AccessType::kRead);
  EXPECT_EQ(t[0].core, 1);
  EXPECT_EQ(t[1].type, AccessType::kWrite);
  std::size_t n = 0;
  for (const auto& a : t) {
    (void)a;
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

TEST(Trace, ReadWriteCounts) {
  Trace t;
  t.append(0, AccessType::kRead);
  t.append(64, AccessType::kRead);
  t.append(128, AccessType::kWrite);
  EXPECT_EQ(t.read_count(), 2u);
  EXPECT_EQ(t.write_count(), 1u);
}

TEST(Trace, PageOfComputesPageNumber) {
  EXPECT_EQ(page_of(0, 4096), 0u);
  EXPECT_EQ(page_of(4095, 4096), 0u);
  EXPECT_EQ(page_of(4096, 4096), 1u);
  EXPECT_EQ(page_of(0x10000, 4096), 16u);
}

TEST(Trace, SetName) {
  Trace t;
  t.set_name("renamed");
  EXPECT_EQ(t.name(), "renamed");
}

TEST(Trace, FootprintRecordHoldsUntilAnAppend) {
  Trace t("t");
  t.append(0x1000, AccessType::kRead);
  t.append(0x5000, AccessType::kWrite);
  EXPECT_FALSE(t.recorded_footprint(4096));
  t.record_footprint(4096, 2);
  EXPECT_EQ(t.recorded_footprint(4096), 2u);
  EXPECT_FALSE(t.recorded_footprint(8192));
  EXPECT_FALSE(t.recorded_footprint(0));
  // A copy holds the same accesses, so it keeps the record; a trace built
  // from the accesses alone has none.
  const Trace copy = t;
  EXPECT_EQ(copy.recorded_footprint(4096), 2u);
  EXPECT_FALSE(Trace("t", std::vector<MemAccess>(t.begin(), t.end()))
                   .recorded_footprint(4096));
  t.append(0x9000, AccessType::kRead);
  EXPECT_FALSE(t.recorded_footprint(4096));
  EXPECT_THROW(t.record_footprint(0, 3), std::logic_error);
}

TEST(MemAccess, Equality) {
  MemAccess a{1, AccessType::kRead, 0};
  MemAccess b{1, AccessType::kRead, 0};
  MemAccess c{1, AccessType::kWrite, 0};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace hymem::trace
