// Property suite run over every replacement algorithm: invariants that must
// hold regardless of the algorithm.
#include <gtest/gtest.h>

#include <string>

#include "policy/clock.hpp"
#include "policy/lru.hpp"
#include "util/random.hpp"

namespace hymem::policy {
namespace {

// Runs `body` on a fresh policy of the named algorithm. The algorithms are
// concrete classes with no common base, so the suite dispatches on the name
// (which keeps the case names "lru" and "clock").
template <typename Body>
void with_policy(const std::string& name, std::size_t capacity, Body&& body) {
  if (name == "lru") {
    LruPolicy policy(capacity);
    body(policy);
  } else if (name == "clock") {
    ClockPolicy policy(capacity);
    body(policy);
  } else {
    FAIL() << "no replacement algorithm named " << name;
  }
}

class ReplacementProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplacementProperties, ReportsConstructedCapacity) {
  with_policy(GetParam(), 8, [](const auto& policy) {
    EXPECT_EQ(policy.capacity(), 8u);
    EXPECT_EQ(policy.size(), 0u);
  });
}

TEST_P(ReplacementProperties, SizeNeverExceedsCapacityUnderChurn) {
  with_policy(GetParam(), 16, [](auto& policy) {
    Rng rng(21);
    for (int i = 0; i < 5000; ++i) {
      const PageId page = rng.next_below(100);
      if (policy.contains(page)) {
        policy.on_hit(page, rng.next_bool(0.3) ? AccessType::kWrite
                                               : AccessType::kRead);
      } else {
        if (policy.full()) {
          const auto victim = policy.select_victim();
          ASSERT_TRUE(victim.has_value());
          ASSERT_TRUE(policy.contains(*victim))
              << "victim must be a tracked page";
          policy.erase(*victim);
        }
        policy.insert(page, AccessType::kRead);
      }
      ASSERT_LE(policy.size(), policy.capacity());
    }
  });
}

TEST_P(ReplacementProperties, ContainsConsistentWithInsertErase) {
  with_policy(GetParam(), 4, [](auto& policy) {
    policy.insert(42, AccessType::kRead);
    EXPECT_TRUE(policy.contains(42));
    EXPECT_EQ(policy.size(), 1u);
    policy.erase(42);
    EXPECT_FALSE(policy.contains(42));
    EXPECT_EQ(policy.size(), 0u);
  });
}

TEST_P(ReplacementProperties, VictimOfEmptyIsNull) {
  with_policy(GetParam(), 4, [](auto& policy) {
    EXPECT_FALSE(policy.select_victim().has_value());
  });
}

TEST_P(ReplacementProperties, CanRefillAfterDrain) {
  with_policy(GetParam(), 4, [](auto& policy) {
    for (PageId p = 0; p < 4; ++p) policy.insert(p, AccessType::kRead);
    for (PageId p = 0; p < 4; ++p) policy.erase(p);
    EXPECT_EQ(policy.size(), 0u);
    for (PageId p = 10; p < 14; ++p) policy.insert(p, AccessType::kRead);
    EXPECT_EQ(policy.size(), 4u);
  });
}

TEST_P(ReplacementProperties, HighLocalityStreamGetsHighHitRatio) {
  with_policy(GetParam(), 8, [](auto& policy) {
    Rng rng(31);
    std::uint64_t hits = 0;
    constexpr int kAccesses = 4000;
    for (int i = 0; i < kAccesses; ++i) {
      // 90% of accesses to 6 pages that fit in the cache.
      const PageId page =
          rng.next_bool(0.9) ? rng.next_below(6) : 100 + rng.next_below(400);
      if (policy.contains(page)) {
        ++hits;
        policy.on_hit(page, AccessType::kRead);
      } else {
        if (policy.full()) {
          const auto victim = policy.select_victim();
          ASSERT_TRUE(victim.has_value());
          policy.erase(*victim);
        }
        policy.insert(page, AccessType::kRead);
      }
    }
    // Even random replacement beats 50% here; LRU and CLOCK score much
    // higher.
    EXPECT_GT(static_cast<double>(hits) / kAccesses, 0.5);
  });
}

TEST_P(ReplacementProperties, SelectVictimIsStableWithoutMutation) {
  // Two consecutive select_victim calls with no intervening mutation must
  // agree (the call may mutate internal bits, but must converge).
  with_policy(GetParam(), 4, [](auto& policy) {
    for (PageId p = 0; p < 4; ++p) policy.insert(p, AccessType::kRead);
    const auto v1 = policy.select_victim();
    const auto v2 = policy.select_victim();
    ASSERT_TRUE(v1.has_value());
    ASSERT_TRUE(v2.has_value());
    EXPECT_EQ(*v1, *v2);
  });
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementProperties,
                         ::testing::Values("lru", "clock"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

}  // namespace
}  // namespace hymem::policy
