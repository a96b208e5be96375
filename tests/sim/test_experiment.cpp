#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/timeline_io.hpp"
#include "sim/policy_factory.hpp"
#include "sim/results_io.hpp"
#include "synth/generator.hpp"

namespace hymem::sim {
namespace {

TEST(Sizing, PaperRuleSeventyFivePercentAndTenPercent) {
  ExperimentConfig cfg;
  cfg.policy = "two-lru";
  const auto s = size_memory(1000, cfg);
  EXPECT_EQ(s.total_frames, 750u);
  EXPECT_EQ(s.dram_frames, 75u);
  EXPECT_EQ(s.nvm_frames, 675u);
}

TEST(Sizing, SingleTierGetsWholeBudget) {
  ExperimentConfig cfg;
  cfg.policy = "dram-only";
  const auto s = size_memory(1000, cfg);
  EXPECT_EQ(s.dram_frames, 750u);
  EXPECT_EQ(s.nvm_frames, 0u);
  cfg.policy = "nvm-only";
  const auto s2 = size_memory(1000, cfg);
  EXPECT_EQ(s2.nvm_frames, 750u);
  EXPECT_EQ(s2.dram_frames, 0u);
}

TEST(Sizing, HybridAlwaysHasBothModules) {
  ExperimentConfig cfg;
  cfg.policy = "two-lru";
  cfg.dram_fraction = 0.0001;  // would round to 0
  const auto s = size_memory(100, cfg);
  EXPECT_GE(s.dram_frames, 1u);
  EXPECT_GE(s.nvm_frames, 1u);
  cfg.dram_fraction = 0.9999;
  const auto s2 = size_memory(100, cfg);
  EXPECT_GE(s2.nvm_frames, 1u);
}

TEST(Sizing, TinyFootprintStillViable) {
  ExperimentConfig cfg;
  cfg.policy = "two-lru";
  const auto s = size_memory(2, cfg);
  EXPECT_GE(s.total_frames, 2u);
}

TEST(Experiment, RunWorkloadEndToEnd) {
  ExperimentConfig cfg;
  cfg.policy = "two-lru";
  const auto& profile = synth::parsec_profile("blackscholes");
  const auto result = run_workload(profile, /*scale=*/4, cfg);
  EXPECT_EQ(result.workload, "blackscholes");
  EXPECT_EQ(result.accesses, profile.scaled(4).total_accesses());
  EXPECT_GT(result.counts.page_faults, 0u) << "memory < footprint: must miss";
  EXPECT_GT(result.appr().static_nj, 0.0);
}

TEST(Experiment, MemorySizedFromTraceFootprint) {
  ExperimentConfig cfg;
  cfg.policy = "two-lru";
  trace::Trace t("micro");
  for (PageId p = 0; p < 100; ++p) {
    t.append(p * 4096, AccessType::kRead);
    t.append(p * 4096, AccessType::kRead);
  }
  const auto result = run_experiment(t, 1.0, cfg);
  // 75 frames total => some faults beyond the 75 hottest pages.
  EXPECT_EQ(result.params.dram_bytes + result.params.nvm_bytes,
            75u * 4096);
}

TEST(Experiment, DeterministicAcrossRuns) {
  ExperimentConfig cfg;
  cfg.policy = "clock-dwf";
  const auto& profile = synth::parsec_profile("bodytrack");
  const auto a = run_workload(profile, 64, cfg, /*seed=*/5);
  const auto b = run_workload(profile, 64, cfg, /*seed=*/5);
  EXPECT_EQ(a.counts.page_faults, b.counts.page_faults);
  EXPECT_EQ(a.counts.migrations(), b.counts.migrations());
  EXPECT_DOUBLE_EQ(a.amat().total(), b.amat().total());
}

/// Everything a run exports: the result JSON, the sampled-hotness counters
/// and the timeline CSV.
std::string exported(const RunResult& result) {
  std::ostringstream out;
  out << to_json(result) << "\nsampled " << result.has_sampled << ' '
      << result.sampled.samples << ' ' << result.sampled.promotions << ' '
      << result.sampled.demotions << ' ' << result.sampled.drains << '\n';
  obs::write_timeline_csv(result.timeline, out);
  return out.str();
}

TEST(Experiment, SingleTraceFormIsTheTwoTraceFormWarmedOnItself) {
  // run_experiment(T) warms on T, so it must equal run_experiment(T, T)
  // (here with a copy of T, so the two forms read separate sources) for
  // every policy, with and without a timeline.
  synth::GeneratorOptions options;
  options.seed = 42;
  const trace::Trace trace =
      synth::generate(synth::parsec_profile("canneal").scaled(512), options);
  const trace::Trace copy = trace;
  for (const std::string& name : policy_names()) {
    for (const std::uint64_t epoch : {std::uint64_t{0}, std::uint64_t{997}}) {
      ExperimentConfig cfg;
      cfg.policy = name;
      cfg.timeline_epoch = epoch;
      const RunResult single = run_experiment(trace, 1.0, cfg);
      const RunResult pair = run_experiment(trace, copy, 1.0, cfg);
      EXPECT_EQ(exported(single), exported(pair))
          << name << ", epoch " << epoch;
      EXPECT_EQ(single.timeline.empty(), epoch == 0) << name;
    }
  }
}

TEST(Experiment, InvalidFootprintRejected) {
  ExperimentConfig cfg;
  // Empty workloads are bad *input*: invalid_argument so a sweep converts
  // the cell into a structured failure instead of dying.
  EXPECT_THROW(size_memory(0, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace hymem::sim
