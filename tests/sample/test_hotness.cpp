#include "sample/hotness.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sample/tier_queue.hpp"

namespace hymem::sample {
namespace {

TEST(HotnessBoard, ThresholdsValidated) {
  EXPECT_THROW(HotnessBoard(0, 0), std::logic_error);
  EXPECT_THROW(HotnessBoard(2, 3), std::logic_error);  // cold > hot
  HotnessBoard ok(2, 2);
  EXPECT_EQ(ok.hot_threshold(), 2u);
  EXPECT_EQ(ok.cold_threshold(), 2u);
}

TEST(HotnessBoard, RecordReportsTheUpwardCrossingExactlyOnce) {
  HotnessBoard board(3, 1);
  EXPECT_FALSE(board.record(7));  // count 1
  EXPECT_FALSE(board.record(7));  // count 2
  EXPECT_TRUE(board.record(7));   // count 3: crosses the hot threshold
  EXPECT_FALSE(board.record(7));  // count 4: already hot, no re-report
  EXPECT_EQ(board.value(7), 4u);
  EXPECT_EQ(board.value(8), 0u);  // untracked reads as zero
  EXPECT_EQ(board.tracked(), 1u);
}

TEST(HotnessBoard, HotThresholdOneFiresOnFirstSample) {
  HotnessBoard board(1, 1);
  EXPECT_TRUE(board.record(5));
  EXPECT_FALSE(board.record(5));
}

TEST(HotnessBoard, CoolingHalvesEveryCounter) {
  HotnessBoard board(100, 1);
  for (int i = 0; i < 8; ++i) board.record(1);
  for (int i = 0; i < 3; ++i) board.record(2);
  board.cool([](PageId) {});
  EXPECT_EQ(board.value(1), 4u);
  EXPECT_EQ(board.value(2), 1u);
}

TEST(HotnessBoard, CoolingReportsDownwardCrossingsOnce) {
  HotnessBoard board(100, 2);
  for (int i = 0; i < 4; ++i) board.record(9);  // count 4
  std::vector<PageId> cold;
  const auto collect = [&cold](PageId p) { cold.push_back(p); };
  board.cool(collect);  // 4 -> 2: still at the threshold, no report
  EXPECT_TRUE(cold.empty());
  board.cool(collect);  // 2 -> 1: crosses below cold
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(cold[0], PageId{9});
  cold.clear();
  board.cool(collect);  // 1 -> 0: already below, no second report
  EXPECT_TRUE(cold.empty());
}

TEST(HotnessBoard, CoolingPrunesCountersThatReachZero) {
  HotnessBoard board(100, 1);
  board.record(1);  // count 1
  for (int i = 0; i < 2; ++i) board.record(2);
  EXPECT_EQ(board.tracked(), 2u);
  board.cool([](PageId) {});  // 1 -> 0 pruned, 2 -> 1 stays
  EXPECT_EQ(board.tracked(), 1u);
  EXPECT_EQ(board.value(1), 0u);
  EXPECT_EQ(board.value(2), 1u);
  // A pruned page heats up from scratch.
  EXPECT_FALSE(board.record(1));
  EXPECT_EQ(board.value(1), 1u);
}

TEST(TierQueue, FifoVictimIsTheOldestInsert) {
  TierQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.victim().has_value());
  q.insert(10);
  q.insert(11);
  q.insert(12);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.victim().value(), PageId{10});
  q.erase(10);
  EXPECT_EQ(q.victim().value(), PageId{11});
}

TEST(TierQueue, EraseFromTheMiddleKeepsOrder) {
  TierQueue q(4);
  q.insert(1);
  q.insert(2);
  q.insert(3);
  q.erase(2);
  EXPECT_EQ(q.victim().value(), PageId{1});
  EXPECT_FALSE(q.contains(2));
  EXPECT_TRUE(q.contains(1));
  EXPECT_TRUE(q.contains(3));
}

TEST(TierQueue, ForEachWalksNewestToOldest) {
  TierQueue q(4);
  q.insert(1);
  q.insert(2);
  q.insert(3);
  std::vector<PageId> seen;
  q.for_each([&seen](PageId p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<PageId>{3, 2, 1}));
}

TEST(TierQueue, DuplicateInsertAndUntrackedEraseRejected) {
  TierQueue q(4);
  q.insert(1);
  EXPECT_THROW(q.insert(1), std::logic_error);
  EXPECT_THROW(q.erase(2), std::logic_error);
}

}  // namespace
}  // namespace hymem::sample
