// End-to-end parity of the block engine against a per-access reference: for
// every policy, TraceBlockSource blocks reproduce the reference RunResult and
// timeline bytes on hostile fuzz scenarios, for any block size and epoch
// length.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/stream_parity.hpp"
#include "sim/policy_factory.hpp"

namespace hymem {
namespace {

TEST(StreamParity, FuzzScenariosMatchAcrossEveryIngestMode) {
  // Same scenario family as the differential fuzzer: thrash loops, write
  // bursts, capacity-1 modules. Block size and epoch length derive from the
  // seed, covering one-access blocks through whole-trace blocks. Every
  // policy name runs, so every serve_block instantiation is diffed against
  // per-access serving (sampled-lru in its default virtual-time mode).
  for (const std::string& policy : sim::policy_names()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto report = check::run_stream_parity_case(policy, seed, 2000);
      EXPECT_TRUE(report.ok())
          << policy << " seed " << seed << ": " << report.divergence;
      EXPECT_GT(report.accesses, 0u);
    }
  }
}

}  // namespace
}  // namespace hymem
