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
#include <vector>

#include "obs/timeline_io.hpp"
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

// The timeline golden's grid: every policy family the samplers read
// (two-LRU windows, CLOCK-DWF, the sampled-hotness columns, a single-tier
// baseline). The epoch length is odd so epoch boundaries fall at odd offsets
// inside the engine's replay blocks.
runner::SweepResults timeline_sweep() {
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
  return runner::run_sweep(spec, options);
}

/// `line` without its first `n` comma-separated fields.
std::string drop_fields(const std::string& line, int n) {
  std::size_t at = 0;
  for (int i = 0; i < n; ++i) at = line.find(',', at) + 1;
  return line.substr(at);
}

// Pins the rows of the spliced (sweep) timeline export.
TEST(SweepParity, TimelineCsvIsByteIdenticalToGolden) {
  const auto sweep = timeline_sweep();
  ASSERT_EQ(sweep.failures(), 0u);

  std::ostringstream csv;
  sweep.write_timeline_csv(csv);

  const std::string golden = read_file(HYMEM_GOLDEN_TIMELINE_CSV);
  ASSERT_FALSE(golden.empty());
  ASSERT_EQ(csv.str().size(), golden.size());
  EXPECT_EQ(csv.str(), golden);
}

// Pins the direct exporter, one job's timeline at a time: the golden's
// header and that job's rows, without the four job-identity columns.
TEST(SweepParity, DirectTimelineCsvMatchesGoldenRows) {
  const auto sweep = timeline_sweep();
  ASSERT_EQ(sweep.failures(), 0u);
  std::vector<std::string> lines;
  std::istringstream golden(read_file(HYMEM_GOLDEN_TIMELINE_CSV));
  for (std::string line; std::getline(golden, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());

  std::size_t jobs = 0;
  for (const auto& job : sweep.jobs) {
    const std::string identity = job.job.workload.name + ',' +
                                 job.job.policy + ',' + job.job.variant +
                                 ',' + std::to_string(job.job.seed) + ',';
    std::string expected = drop_fields(lines.front(), 4) + '\n';
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (lines[i].starts_with(identity)) {
        expected += drop_fields(lines[i], 4) + '\n';
      }
    }
    std::ostringstream direct;
    obs::write_timeline_csv(job.result.timeline, direct);
    EXPECT_EQ(direct.str(), expected) << identity;
    if (!job.result.timeline.empty()) ++jobs;
  }
  EXPECT_EQ(jobs, 8u);
}

}  // namespace
}  // namespace hymem
