// End-to-end parity of the block engine against a per-access reference:
//
//   * for every policy, every ingest mode (decoded trace windows, HYTS
//     stream with and without readahead) reproduces the reference RunResult
//     and timeline bytes on hostile fuzz scenarios, for any block size and
//     epoch length;
//   * replaying a stream far larger than the block budget keeps peak RSS
//     O(block), not O(trace).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "check/stream_parity.hpp"
#include "core/migration_scheme.hpp"
#include "os/vmm.hpp"
#include "sim/engine.hpp"
#include "sim/policy_factory.hpp"
#include "trace/block_source.hpp"
#include "trace/stream_io.hpp"

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

/// VmHWM ("peak RSS") in bytes from /proc/self/status.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

std::uint64_t current_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS (Linux: "5" into clear_refs).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.close();
  return peak_rss_bytes() <= current_rss_bytes() + (4u << 20);
}

TEST(StreamParity, StreamedReplayPeakMemoryIsBoundedByChunkNotTrace) {
  // 2M accesses = ~20 MB on disk and would cost ~100 MB to materialize and
  // decode (16 B MemAccess + 17 B decoded arrays per access). The streamed
  // engine holds two 16 Ki-access buffers (~0.6 MB) plus one reader chunk.
  constexpr std::size_t kAccesses = 2'000'000;
  constexpr std::size_t kBlock = 1 << 14;
  const std::string path =
      testing::TempDir() + "stream_parity_rss_trace.hyts";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out);
    trace::StreamTraceWriter writer(out, "huge", kBlock);
    std::uint64_t addr = 0;
    for (std::size_t i = 0; i < kAccesses; ++i) {
      // 64-page working set, striding so every page stays hot.
      addr = (addr + 4096) % (64 * 4096);
      writer.append({addr, i % 5 == 0 ? AccessType::kWrite : AccessType::kRead,
                     0});
    }
    writer.finish();
  }
  if (!reset_peak_rss()) {
    std::remove(path.c_str());
    GTEST_SKIP() << "kernel does not support resetting VmHWM";
  }
  const std::uint64_t before = peak_rss_bytes();
  {
    os::VmmConfig config;
    config.dram_frames = 8;
    config.nvm_frames = 48;
    os::Vmm vmm(config);
    core::TwoLruMigrationPolicy policy(vmm, {});
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    trace::StreamBlockSource source(in, config.page_size, kBlock,
                                    /*readahead=*/true);
    const auto result = sim::run_blocks(policy, source, nullptr, 0, 1.0);
    EXPECT_EQ(result.accesses, kAccesses);
  }
  const std::uint64_t after = peak_rss_bytes();
  std::remove(path.c_str());
  // O(chunk) head-room budget: far below the ~100 MB a materialized replay
  // of this trace costs, far above the ~1 MB the double buffer needs.
  EXPECT_LT(after - before, 16u << 20)
      << "peak grew by " << (after - before) / 1024 << " KiB";
}

}  // namespace
}  // namespace hymem
