#include "util/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "util/random.hpp"

namespace hymem::util {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, ZeroCapacityRejected) {
  EXPECT_THROW(SpscRing<int>(0), std::logic_error);
}

TEST(SpscRing, FifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(i));
  for (int i = 0; i < 5; ++i) {
    const auto v = ring.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRing, FullRingRejectsPush) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.push(99));
  // The rejected push must not disturb the queued values.
  EXPECT_EQ(ring.pop().value(), 0);
  EXPECT_TRUE(ring.push(4));
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(ring.pop().value(), i);
}

TEST(SpscRing, EmptyPopReturnsNullopt) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.pop().has_value());
  ring.push(1);
  EXPECT_FALSE(ring.empty());
  ring.pop();
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRing, CapacityOneBoundary) {
  SpscRing<int> ring(1);
  EXPECT_TRUE(ring.push(7));
  EXPECT_FALSE(ring.push(8));
  EXPECT_EQ(ring.pop().value(), 7);
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRing, WraparoundManyTimesOverSmallRing) {
  // Cursors are monotonic and indices masked: push/pop far more values than
  // the capacity and the FIFO contract must survive every wrap.
  SpscRing<std::uint64_t> ring(4);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (ring.push(next_in)) ++next_in;
    for (int drain = 0; drain < 3; ++drain) {
      const auto v = ring.pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_out++);
    }
  }
  while (const auto v = ring.pop()) EXPECT_EQ(*v, next_out++);
  EXPECT_EQ(next_in, next_out);
}

TEST(SpscRing, PropertyRandomInterleavingMatchesDeque) {
  // Single-threaded oracle: any interleaving of pushes and pops behaves
  // exactly like an unbounded deque truncated at capacity.
  std::uint64_t s = 0x5eed5eed5eed5eedULL;
  SpscRing<std::uint64_t> ring(8);
  std::deque<std::uint64_t> oracle;
  std::uint64_t value = 0;
  for (int step = 0; step < 20000; ++step) {
    if (splitmix64(s) % 2 == 0) {
      const bool accepted = ring.push(value);
      EXPECT_EQ(accepted, oracle.size() < ring.capacity());
      if (accepted) oracle.push_back(value);
      ++value;
    } else {
      const auto popped = ring.pop();
      EXPECT_EQ(popped.has_value(), !oracle.empty());
      if (popped) {
        EXPECT_EQ(*popped, oracle.front());
        oracle.pop_front();
      }
    }
    EXPECT_EQ(ring.size(), oracle.size());
  }
}

}  // namespace
}  // namespace hymem::util
