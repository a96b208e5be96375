#include "runner/sharded.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/results_io.hpp"
#include "synth/workload_profile.hpp"

namespace hymem::runner {
namespace {

// Wide footprint (1024 pages -> ~76 DRAM frames under Section V.A sizing)
// with few accesses, so every shard gets a real budget slice and the whole
// suite runs in milliseconds.
synth::WorkloadProfile tiny_profile() {
  synth::WorkloadProfile p;
  p.name = "shard-tiny";
  p.working_set_kb = 4096;
  p.reads = 30000;
  p.writes = 10000;
  return p;
}

sim::ExperimentConfig partitioned_config(unsigned partitions) {
  sim::ExperimentConfig config;
  config.partitions = partitions;
  return config;
}

constexpr std::uint64_t kScale = 1;

TEST(Sharded, RejectsFewerThanTwoShards) {
  EXPECT_THROW(
      run_sharded_workload(tiny_profile(), kScale, partitioned_config(1)),
      std::invalid_argument);
}

TEST(Sharded, RejectsSampledPolicies) {
  auto config = partitioned_config(3);
  config.policy = "sampled-lru";
  EXPECT_THROW(run_sharded_workload(tiny_profile(), kScale, config),
               std::invalid_argument);
}

TEST(Sharded, DeterministicAcrossRepeatsForFixedShardCount) {
  const auto config = partitioned_config(3);
  const auto a = run_sharded_workload(tiny_profile(), kScale, config);
  const auto b = run_sharded_workload(tiny_profile(), kScale, config);
  EXPECT_EQ(sim::to_json(a), sim::to_json(b));
}

TEST(Sharded, ReplaysEveryAccessAndConservesBudget) {
  // The serial engine and the partitioned run consume the same generated
  // traces, so total accesses and the Section V.A memory budget must agree
  // exactly even though per-shard placement differs.
  sim::ExperimentConfig serial_config;
  const auto serial = sim::run_workload(tiny_profile(), kScale, serial_config);
  for (const unsigned shards : {2u, 5u}) {
    const auto sharded =
        run_sharded_workload(tiny_profile(), kScale, partitioned_config(shards));
    EXPECT_EQ(sharded.accesses, serial.accesses) << shards;
    EXPECT_EQ(sharded.counts.accesses, serial.counts.accesses) << shards;
    EXPECT_EQ(sharded.counts.hits() + sharded.counts.page_faults,
              sharded.counts.accesses)
        << shards;
    EXPECT_EQ(sharded.params.dram_bytes, serial.params.dram_bytes) << shards;
    EXPECT_EQ(sharded.params.nvm_bytes, serial.params.nvm_bytes) << shards;
    EXPECT_EQ(sharded.workload, serial.workload);
    EXPECT_EQ(sharded.policy, serial.policy);
  }
}

TEST(Sharded, TimelineEpochsCoverEveryShard) {
  auto config = partitioned_config(2);
  config.timeline_epoch = 256;
  const auto result = run_sharded_workload(tiny_profile(), kScale, config);
  EXPECT_EQ(result.timeline.epoch_length, 256u);
  ASSERT_FALSE(result.timeline.epochs.empty());
  std::uint64_t covered = 0;
  for (const auto& epoch : result.timeline.epochs) {
    covered += epoch.delta.accesses;
  }
  EXPECT_EQ(covered, result.accesses);
}

TEST(Sharded, DispatchRoutesByModeAndCount) {
  // One partition takes the plain engine, byte-identical to run_workload;
  // more than one takes the partitioned path, byte-identical to
  // run_sharded_workload.
  sim::ExperimentConfig serial_config;
  const auto serial = sim::run_workload(tiny_profile(), kScale, serial_config);
  EXPECT_EQ(sim::to_json(run_workload_dispatch(tiny_profile(), kScale,
                                               partitioned_config(1))),
            sim::to_json(serial));
  const auto partitioned = run_workload_dispatch(tiny_profile(), kScale,
                                                 partitioned_config(2));
  EXPECT_EQ(partitioned.accesses, serial.accesses);
  EXPECT_EQ(sim::to_json(partitioned),
            sim::to_json(run_sharded_workload(tiny_profile(), kScale,
                                              partitioned_config(2))));
}

}  // namespace
}  // namespace hymem::runner
