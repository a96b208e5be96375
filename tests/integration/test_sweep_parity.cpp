// Guards the hot-path overhaul's central invariant: the data-layout changes
// (page-ID interning, flat open-addressing maps, slab/index-linked queues)
// are pure performance work — simulation results must be byte-identical to
// the pre-overhaul implementation. The golden CSV was captured from the
// pre-overhaul tree with the exact spec below and committed; any behavioural
// drift in the sim core shows up here as a byte diff. The timeline golden
// was captured the same way before the replay loops were folded into the
// single block engine, which now writes every epoch row.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "runner/sweep.hpp"
#include "synth/workload_profile.hpp"

#ifndef HYMEM_GOLDEN_SWEEP_CSV
#error "HYMEM_GOLDEN_SWEEP_CSV must point at the committed golden sweep CSV"
#endif
#ifndef HYMEM_GOLDEN_TIMELINE_CSV
#error "HYMEM_GOLDEN_TIMELINE_CSV must point at the committed golden timeline CSV"
#endif

namespace hymem {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open golden CSV: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Mirrors bench_sweep's default grid at --scale 512 --seed 42 --jobs 1.
TEST(SweepParity, CsvIsByteIdenticalToPreOverhaulGolden) {
  runner::SweepSpec spec;
  const auto profiles = synth::parsec_profiles();
  spec.workloads.assign(profiles.begin(), profiles.end());
  spec.policies = {"dram-only", "nvm-only", "static-partition", "dram-cache",
                   "rank-mq",   "clock-dwf", "two-lru", "two-lru-adaptive"};
  spec.scale = 512;
  spec.base_seed = 42;
  spec.seed_mode = runner::SeedMode::kShared;

  runner::SweepOptions options;
  options.jobs = 1;

  const auto sweep = runner::run_sweep(spec, options);
  ASSERT_EQ(sweep.failures(), 0u);

  std::ostringstream csv;
  sweep.write_csv(csv);

  const std::string golden = read_file(HYMEM_GOLDEN_SWEEP_CSV);
  ASSERT_FALSE(golden.empty());
  // Compare sizes first for a readable failure before the full diff.
  ASSERT_EQ(csv.str().size(), golden.size());
  EXPECT_EQ(csv.str(), golden);
}

// Pins the rows of the epoch timeline export: every policy family the
// samplers read (two-LRU windows, CLOCK-DWF, the sampled-hotness columns, a
// single-tier baseline). The epoch length is odd so epoch boundaries fall at
// odd offsets inside the engine's replay blocks.
TEST(SweepParity, TimelineCsvIsByteIdenticalToGolden) {
  runner::SweepSpec spec;
  spec.workloads = {synth::parsec_profile("canneal"),
                    synth::parsec_profile("streamcluster")};
  spec.policies = {"two-lru", "clock-dwf", "sampled-lru", "dram-only"};
  spec.scale = 512;
  spec.base_seed = 42;
  spec.seed_mode = runner::SeedMode::kShared;
  runner::ConfigVariant variant;
  variant.config.timeline_epoch = 997;
  spec.variants = {variant};

  runner::SweepOptions options;
  options.jobs = 1;

  const auto sweep = runner::run_sweep(spec, options);
  ASSERT_EQ(sweep.failures(), 0u);

  std::ostringstream csv;
  sweep.write_timeline_csv(csv);

  const std::string golden = read_file(HYMEM_GOLDEN_TIMELINE_CSV);
  ASSERT_FALSE(golden.empty());
  ASSERT_EQ(csv.str().size(), golden.size());
  EXPECT_EQ(csv.str(), golden);
}

}  // namespace
}  // namespace hymem
