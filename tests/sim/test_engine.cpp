#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "sim/policy_factory.hpp"
#include "synth/generator.hpp"
#include "trace/access.hpp"

namespace hymem::sim {
namespace {

/// One engine run over `trace`, which is also its own warm-up.
RunResult replay(policy::HybridPolicy& policy, const trace::Trace& trace,
                 double duration_s, unsigned warmup_passes = 0) {
  trace::TraceBlockSource source(trace, policy.vmm().config().page_size);
  return run_blocks(policy, source, &source, warmup_passes, duration_s);
}

trace::Trace tiny_trace() {
  synth::WorkloadProfile p;
  p.name = "tiny";
  p.working_set_kb = 128;  // 32 pages
  p.reads = 3000;
  p.writes = 1000;
  synth::GeneratorOptions o;
  o.seed = 13;
  return synth::generate(p, o);
}

os::VmmConfig hybrid_config() {
  os::VmmConfig c;
  c.dram_frames = 3;
  c.nvm_frames = 21;  // 75% of 32 pages total
  return c;
}

TEST(Engine, CountsCoverEveryAccess) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  const auto trace = tiny_trace();
  const auto result = replay(*policy, trace, 1.0);
  EXPECT_EQ(result.accesses, trace.size());
  EXPECT_EQ(result.counts.hits() + result.counts.page_faults, trace.size());
  EXPECT_EQ(result.workload, "tiny");
  EXPECT_EQ(result.policy, "two-lru");
}

TEST(Engine, VisibleLatencyEqualsModelAmat) {
  // Every latency the policies report flows through the same VMM cost
  // model that Eq. 1 reconstructs from counts, so the two must agree.
  for (const char* name : {"dram-only", "nvm-only", "clock-dwf", "two-lru",
                           "static-partition", "dram-cache"}) {
    os::VmmConfig cfg = hybrid_config();
    if (std::string(name) == "dram-only") {
      cfg.dram_frames = 24;
      cfg.nvm_frames = 0;
    } else if (std::string(name) == "nvm-only") {
      cfg.dram_frames = 0;
      cfg.nvm_frames = 24;
    }
    os::Vmm vmm(cfg);
    const auto policy = make_policy(name, vmm);
    const auto result = replay(*policy, tiny_trace(), 1.0);
    const auto breakdown = result.amat();
    EXPECT_NEAR(result.visible_latency_ns,
                breakdown.total() * static_cast<double>(result.accesses),
                result.visible_latency_ns * 1e-9 + 1e-3)
        << name;
  }
}

TEST(Engine, DerivedMetricsAvailable) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  const auto result = replay(*policy, tiny_trace(), 0.5);
  EXPECT_GT(result.amat().total(), 0.0);
  EXPECT_GT(result.appr().total(), 0.0);
  EXPECT_GT(result.appr().static_nj, 0.0);
  // Faults always fill DRAM under two-lru; with a full memory every fill
  // eventually demotes, so NVM writes must be nonzero.
  EXPECT_GT(result.nvm_writes().total(), 0u);
}

TEST(Engine, EmptyTraceRejected) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  trace::Trace empty;
  // invalid_argument (bad input, catchable by the sweep runner), not the
  // HYMEM_CHECK logic_error that used to kill the whole process; warm-up
  // passes over nothing do not hide it.
  EXPECT_THROW(replay(*policy, empty, 1.0, /*warmup_passes=*/2),
               std::invalid_argument);
}


TEST(Engine, WarmupPassResetsAccountingButKeepsResidency) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  const auto trace = tiny_trace();
  const auto result = replay(*policy, trace, 1.0, /*warmup_passes=*/1);
  // Warmup faulted the cold pages; the measured pass starts warm, so its
  // fault count must be far below the footprint.
  EXPECT_LT(result.counts.page_faults, 32u);
  // And the counted window still covers every access exactly once.
  EXPECT_EQ(result.counts.hits() + result.counts.page_faults, trace.size());
}

TEST(Engine, WarmupReducesMeasuredFaults) {
  auto run_with = [&](unsigned warmup) {
    os::Vmm vmm(hybrid_config());
    const auto policy = make_policy("two-lru", vmm);
    return replay(*policy, tiny_trace(), 1.0, warmup).counts.page_faults;
  };
  EXPECT_LT(run_with(1), run_with(0));
}

/// Reference for the engine: warm-up passes and the measured pass served
/// one access at a time through on_access.
RunResult per_access(policy::HybridPolicy& policy, const trace::Trace& trace,
                     unsigned warmup_passes) {
  const std::uint64_t page_size = policy.vmm().config().page_size;
  for (unsigned pass = 0; pass < warmup_passes; ++pass) {
    for (const auto& a : trace) {
      policy.on_access(trace::page_of(a.addr, page_size), a.type);
    }
  }
  if (warmup_passes > 0) {
    policy.vmm().reset_accounting();
    policy.reset_stats();
  }
  RunResult result;
  result.policy = std::string(policy.name());
  result.workload = trace.name();
  for (const auto& a : trace) {
    result.visible_latency_ns +=
        policy.on_access(trace::page_of(a.addr, page_size), a.type);
  }
  result.accesses = trace.size();
  result.counts = model::EventCounts::from_vmm(policy.vmm(), result.accesses);
  return result;
}

/// hybrid_config() with a single-tier policy's frames all in its module.
os::VmmConfig config_for(const std::string& policy) {
  os::VmmConfig cfg = hybrid_config();
  if (policy == "dram-only") {
    cfg.dram_frames += cfg.nvm_frames;
    cfg.nvm_frames = 0;
  } else if (policy == "nvm-only") {
    cfg.nvm_frames += cfg.dram_frames;
    cfg.dram_frames = 0;
  }
  return cfg;
}

TEST(Engine, BlockRunMatchesReferenceRunExactly) {
  const auto trace = tiny_trace();
  for (const std::string& name : policy_names()) {
    for (const unsigned warmup : {0u, 1u, 2u}) {
      const std::string where = name + " warmup " + std::to_string(warmup);
      os::Vmm vmm_a(config_for(name));
      const auto policy_a = make_policy(name, vmm_a);
      const auto reference = per_access(*policy_a, trace, warmup);

      os::Vmm vmm_b(config_for(name));
      const auto policy_b = make_policy(name, vmm_b);
      trace::TraceBlockSource source(trace, vmm_b.config().page_size, 97);
      const auto blocked = run_blocks(*policy_b, source, &source, warmup, 1.0);

      EXPECT_EQ(blocked.accesses, reference.accesses) << where;
      EXPECT_EQ(blocked.counts.hits(), reference.counts.hits()) << where;
      EXPECT_EQ(blocked.counts.dram_write_hits, reference.counts.dram_write_hits)
          << where;
      EXPECT_EQ(blocked.counts.nvm_write_hits, reference.counts.nvm_write_hits)
          << where;
      EXPECT_EQ(blocked.counts.page_faults, reference.counts.page_faults)
          << where;
      EXPECT_EQ(blocked.counts.migrations(), reference.counts.migrations())
          << where;
      EXPECT_EQ(blocked.counts.dirty_evictions, reference.counts.dirty_evictions)
          << where;
      EXPECT_DOUBLE_EQ(blocked.visible_latency_ns, reference.visible_latency_ns)
          << where;
      EXPECT_EQ(blocked.workload, reference.workload);
      EXPECT_EQ(blocked.policy, reference.policy);
    }
  }
}

TEST(Engine, BlockRunObserverSeesOnlyMeasuredAccesses) {
  // The sampled timeline must cover exactly the measured pass, with blocks
  // cut at epoch boundaries that do not divide the block size.
  const auto trace = tiny_trace();
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  trace::TraceBlockSource source(trace, vmm.config().page_size, 64);
  obs::EpochSampler sampler(/*epoch_length=*/500, vmm, nullptr, 1.0);
  const auto result = run_blocks(*policy, source, &source,
                                 /*warmup_passes=*/1, 1.0, &sampler);
  std::uint64_t covered = 0;
  for (const auto& epoch : result.timeline.epochs) {
    covered += epoch.delta.accesses;
  }
  EXPECT_EQ(covered, result.accesses);
  EXPECT_EQ(result.accesses, trace.size());
  EXPECT_EQ(result.timeline.epochs.size(), (trace.size() + 499) / 500);
}

TEST(Engine, EmptyBlockSourceRejected) {
  os::Vmm vmm(hybrid_config());
  const auto policy = make_policy("two-lru", vmm);
  trace::Trace empty;
  empty.set_name("void");
  trace::TraceBlockSource source(empty, vmm.config().page_size, 16);
  EXPECT_THROW(run_blocks(*policy, source, nullptr, 0, 1.0),
               std::invalid_argument);
}

TEST(Engine, IntegratedTransferModeShortensVisibleLatency) {
  auto run_mode = [&](mem::TransferMode mode) {
    os::VmmConfig cfg = hybrid_config();
    cfg.transfer_mode = mode;
    os::Vmm vmm(cfg);
    const auto policy = make_policy("clock-dwf", vmm);
    return replay(*policy, tiny_trace(), 1.0);
  };
  const auto dma = run_mode(mem::TransferMode::kDma);
  const auto integrated = run_mode(mem::TransferMode::kIntegrated);
  ASSERT_GT(dma.counts.migrations(), 0u);
  EXPECT_LT(integrated.visible_latency_ns, dma.visible_latency_ns);
  // The latency identity must hold in both modes (model knows the mode).
  for (const auto* r : {&dma, &integrated}) {
    EXPECT_NEAR(r->visible_latency_ns,
                r->amat().total() * static_cast<double>(r->accesses),
                r->visible_latency_ns * 1e-9 + 1e-3);
  }
}

}  // namespace
}  // namespace hymem::sim
