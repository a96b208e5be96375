#include "policy/page_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hymem::policy {
namespace {

struct Counter {
  std::uint64_t hits = 0;
};

using Ring = PageRing<Counter>;

std::vector<PageId> pages(const Ring& ring, std::size_t list = 0) {
  std::vector<PageId> out;
  ring.for_each([&out](const Ring::Node& n) { out.push_back(n.page); }, list);
  return out;
}

// The list from last() back to first(), over the prev links.
std::vector<PageId> pages_backward(const Ring& ring, std::size_t list = 0) {
  std::vector<PageId> out;
  for (Ring::Slot i = ring.last(list); i != ring.sentinel(list);
       i = ring.node(i).prev) {
    out.push_back(ring.node(i).page);
  }
  return out;
}

TEST(PageRing, StartsEmptyWithEachListClosedOnItsSentinel) {
  const Ring ring(4, 3);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(ring.full());
  for (std::size_t list = 0; list < 3; ++list) {
    EXPECT_EQ(ring.sentinel(list), list);
    EXPECT_EQ(ring.first(list), ring.sentinel(list));
    EXPECT_EQ(ring.last(list), ring.sentinel(list));
  }
}

TEST(PageRing, InsertBeforeAndMoveToFrontKeepListOrder) {
  Ring ring(4);
  const Ring::Slot one = ring.insert_before(ring.first(), 1);
  ring.insert_before(ring.first(), 2);
  ring.insert_before(ring.first(), 3);
  EXPECT_EQ(pages(ring), (std::vector<PageId>{3, 2, 1}));
  ASSERT_NE(ring.find(1), nullptr);
  EXPECT_EQ(ring.find(1, util::hash_page_id(1)), ring.find(1));
  EXPECT_EQ(ring.last(), one);
  ring.move_to_front(one);
  EXPECT_EQ(pages(ring), (std::vector<PageId>{1, 3, 2}));
  ring.move_to_front(one);  // already first: a no-op
  EXPECT_EQ(pages(ring), (std::vector<PageId>{1, 3, 2}));
  ring.insert_before(ring.sentinel(), 4);  // before the sentinel: the back
  EXPECT_EQ(pages(ring), (std::vector<PageId>{1, 3, 2, 4}));
  EXPECT_TRUE(ring.full());
}

TEST(PageRing, MovesNodesBetweenListsOfOneRing) {
  Ring ring(4, 2);
  const Ring::Slot one = ring.insert_before(ring.first(0), 1);
  const Ring::Slot two = ring.insert_before(ring.first(0), 2);
  const Ring::Slot three = ring.insert_before(ring.first(1), 3);
  EXPECT_EQ(pages(ring, 0), (std::vector<PageId>{2, 1}));
  EXPECT_EQ(pages(ring, 1), (std::vector<PageId>{3}));

  ring.move_to_front(one, 1);
  EXPECT_EQ(pages(ring, 0), (std::vector<PageId>{2}));
  EXPECT_EQ(pages(ring, 1), (std::vector<PageId>{1, 3}));

  // A cross-list move_to_front (rank-mq's move on a level change) writes
  // the sentinel's links itself, so check both directions. Emptying a list
  // closes it on its sentinel again.
  ring.move_to_front(two, 1);
  EXPECT_EQ(ring.first(0), ring.sentinel(0));
  EXPECT_EQ(ring.last(0), ring.sentinel(0));
  EXPECT_EQ(pages(ring, 1), (std::vector<PageId>{2, 1, 3}));
  EXPECT_EQ(pages_backward(ring, 1), (std::vector<PageId>{3, 1, 2}));
  EXPECT_EQ(ring.size(), 3u);

  // A list's last node moves to its front.
  ring.move_to_front(three, 1);
  EXPECT_EQ(pages(ring, 1), (std::vector<PageId>{3, 2, 1}));
  EXPECT_EQ(pages_backward(ring, 1), (std::vector<PageId>{1, 2, 3}));
  // A list's second node moves to its front.
  ring.move_to_front(two, 1);
  EXPECT_EQ(pages(ring, 1), (std::vector<PageId>{2, 3, 1}));
  EXPECT_EQ(pages_backward(ring, 1), (std::vector<PageId>{1, 3, 2}));
  // A node moves to the front of an empty list.
  ring.move_to_front(three, 0);
  EXPECT_EQ(ring.first(0), three);
  EXPECT_EQ(ring.last(0), three);
  EXPECT_EQ(ring.node(three).prev, ring.sentinel(0));
  EXPECT_EQ(ring.node(three).next, ring.sentinel(0));
  EXPECT_EQ(pages(ring, 1), (std::vector<PageId>{2, 1}));
  EXPECT_EQ(pages_backward(ring, 1), (std::vector<PageId>{1, 2}));
  EXPECT_EQ(ring.size(), 3u);
}

TEST(PageRing, ReusesFreeSlotsUnderChurnAtFullCapacity) {
  constexpr std::size_t kCapacity = 8;
  Ring ring(kCapacity);
  for (PageId p = 0; p < kCapacity; ++p) ring.insert_before(ring.first(), p);
  ASSERT_TRUE(ring.full());
  for (PageId p = kCapacity; p < 1000; ++p) {
    const PageId oldest = ring.node(ring.last()).page;
    const Ring::Slot freed = ring.erase(oldest);
    // The slot just freed is the one the next insert takes, so the live
    // slots never leave the array: the sentinel at 0, then the nodes.
    EXPECT_EQ(ring.insert_before(ring.first(), p), freed);
    EXPECT_GT(freed, ring.sentinel());
    EXPECT_LE(freed, kCapacity);
    ASSERT_TRUE(ring.full());
  }
  std::vector<PageId> expected;
  for (PageId p = 999; p >= 1000 - kCapacity; --p) expected.push_back(p);
  EXPECT_EQ(pages(ring), expected);
}

TEST(PageRing, InsertResetsTheNodeFields) {
  Ring ring(1);
  const Ring::Slot slot = ring.insert_before(ring.first(), 7);
  EXPECT_EQ(ring.node(slot).hits, 0u);
  ring.node(slot).hits = 42;
  ring.erase(7);
  const Ring::Slot reused = ring.insert_before(ring.first(), 8);
  ASSERT_EQ(reused, slot);
  EXPECT_EQ(ring.node(reused).page, PageId{8});
  EXPECT_EQ(ring.node(reused).hits, 0u);
}

TEST(PageRing, ErasedNodeKeepsItsFieldsUntilTheNextInsert) {
  Ring ring(4);
  ring.insert_before(ring.first(), 1);
  const Ring::Slot two = ring.insert_before(ring.first(), 2);
  ring.insert_before(ring.first(), 3);
  ring.node(two).hits = 5;

  EXPECT_EQ(ring.erase(2), two);
  EXPECT_FALSE(ring.contains(2));
  EXPECT_EQ(pages(ring), (std::vector<PageId>{3, 1}));
  // Page, fields and links survive: an owner may still read the erased
  // node's state and step to its former neighbours.
  const Ring::Node& erased = ring.node(two);
  EXPECT_EQ(erased.page, PageId{2});
  EXPECT_EQ(erased.hits, 5u);
  EXPECT_EQ(ring.node(erased.prev).page, PageId{3});
  EXPECT_EQ(ring.node(erased.next).page, PageId{1});
}

TEST(PageRing, FullDuplicateAndUntrackedChecksThrow) {
  Ring ring(2);
  ring.insert_before(ring.first(), 1);
  EXPECT_THROW(ring.insert_before(ring.first(), 1), std::logic_error);
  EXPECT_THROW(ring.erase(2), std::logic_error);
  ring.insert_before(ring.first(), 2);
  EXPECT_THROW(ring.insert_before(ring.first(), 3), std::logic_error);
  EXPECT_EQ(pages(ring), (std::vector<PageId>{2, 1}));
  EXPECT_THROW(Ring(0), std::logic_error);
}

}  // namespace
}  // namespace hymem::policy
