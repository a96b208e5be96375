#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/migration_scheme.hpp"
#include "obs/epoch.hpp"
#include "sim/policy_factory.hpp"
#include "synth/generator.hpp"
#include "trace/block_source.hpp"
#include "trace/trace_stats.hpp"
#include "util/check.hpp"

namespace hymem::sim {

MemorySizing size_memory(std::uint64_t footprint_pages,
                         const ExperimentConfig& config) {
  // Bad input (an empty workload), not a logic error: throw something the
  // sweep runner can catch into a structured per-job failure.
  if (footprint_pages == 0) {
    throw std::invalid_argument(
        "empty footprint: workload touches no pages, cannot size memory");
  }
  HYMEM_CHECK(config.memory_fraction > 0.0 && config.memory_fraction <= 1.0);
  HYMEM_CHECK(config.dram_fraction >= 0.0 && config.dram_fraction <= 1.0);
  MemorySizing s;
  s.total_frames = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(std::llround(
             config.memory_fraction * static_cast<double>(footprint_pages))));
  if (is_single_tier(config.policy)) {
    const bool dram = config.policy == "dram-only";
    s.dram_frames = dram ? s.total_frames : 0;
    s.nvm_frames = dram ? 0 : s.total_frames;
    return s;
  }
  s.dram_frames = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::llround(
          config.dram_fraction * static_cast<double>(s.total_frames))),
      1, s.total_frames - 1);
  s.nvm_frames = s.total_frames - s.dram_frames;
  return s;
}

namespace {

/// Builds the VMM and policy of one run on `sizing`, then replays `measured`
/// through the engine: `warmup_passes` warm-up passes over `warmup` (it may
/// be `measured` itself), with the epoch sampler that `config.timeline_epoch`
/// asks for. Both run_experiment forms end here.
RunResult run_sized(const MemorySizing& sizing, const trace::Trace& warmup,
                    unsigned warmup_passes, const trace::Trace& measured,
                    double duration_s, const ExperimentConfig& config) {
  os::Vmm vmm(vmm_config_for(sizing, config));
  const auto policy =
      make_policy(config.policy, vmm, config.migration, config.sample);
  trace::TraceBlockSource measured_source(measured, config.page_size);
  std::optional<trace::TraceBlockSource> warmup_source;
  trace::TraceBlockSource* warmup_blocks = &measured_source;
  if (&warmup != &measured) {
    warmup_blocks = &warmup_source.emplace(warmup, config.page_size);
  }
  std::optional<obs::EpochSampler> sampler;
  if (config.timeline_epoch > 0) {
    // The sampler reads scheme internals (windows, thresholds) only when
    // the policy is the two-LRU scheme, and sampled-hotness counters only
    // when the policy has them; every policy gets the VMM-level columns.
    sampler.emplace(
        config.timeline_epoch, vmm,
        dynamic_cast<const core::TwoLruMigrationPolicy*>(policy.get()),
        duration_s,
        dynamic_cast<const obs::SampledStatsSource*>(policy.get()));
  }
  return run_blocks(*policy, measured_source, warmup_blocks, warmup_passes,
                    duration_s, sampler ? &*sampler : nullptr);
}

}  // namespace

RunResult run_experiment(const trace::Trace& trace, double duration_s,
                         const ExperimentConfig& config) {
  const std::uint64_t footprint =
      trace::distinct_pages(trace, config.page_size);
  return run_sized(size_memory(footprint, config), trace,
                   config.warmup_passes, trace, duration_s, config);
}

RunResult run_experiment(const trace::Trace& warmup,
                         const trace::Trace& measured, double duration_s,
                         const ExperimentConfig& config) {
  const std::uint64_t footprint =
      trace::distinct_pages(warmup, config.page_size);
  return run_sized(size_memory(footprint, config), warmup,
                   std::max(1u, config.warmup_passes), measured, duration_s,
                   config);
}

bool analytic_supported(const ExperimentConfig& config) {
  if (config.policy == "two-lru") return !config.migration.adaptive;
  // Single-tier baselines run LRU, which the stack-distance model is exact
  // for.
  return is_single_tier(config.policy);
}

model::AnalyticConfig analytic_config_for(const ExperimentConfig& config,
                                          const MemorySizing& sizing,
                                          double duration_s) {
  model::AnalyticConfig a;
  a.dram_frames = sizing.dram_frames;
  a.nvm_frames = sizing.nvm_frames;
  a.migration = config.migration;
  a.params.dram = config.dram;
  a.params.nvm = config.nvm;
  a.params.disk_latency_ns = config.disk.access_latency_ns;
  a.params.page_factor = config.page_size / config.access_granularity;
  a.params.dram_bytes = sizing.dram_frames * config.page_size;
  a.params.nvm_bytes = sizing.nvm_frames * config.page_size;
  a.params.transfer_mode = config.transfer_mode;
  a.duration_s = duration_s;
  return a;
}

AnalyticWorkload characterize_workload(const synth::WorkloadProfile& profile,
                                       std::uint64_t scale,
                                       const ExperimentConfig& config,
                                       std::uint64_t seed) {
  const WorkloadTraces traces = generate_workload(profile, scale, config, seed);
  trace::ReuseDistanceAnalyzer analyzer(config.page_size);
  // One warmup observation suffices for any warmup_passes: repeated passes
  // leave the same final LRU stack order.
  analyzer.observe(traces.warmup);
  AnalyticWorkload w;
  w.footprint_pages = analyzer.distinct_pages();
  analyzer.reset_stats();
  analyzer.observe(traces.measured);
  w.profile = analyzer.profile();
  w.duration_s = traces.duration_s;
  return w;
}

model::AnalyticEstimate analytic_estimate(const AnalyticWorkload& workload,
                                          const ExperimentConfig& config) {
  if (!analytic_supported(config)) {
    throw std::invalid_argument("analytic estimator does not model policy: " +
                                config.policy);
  }
  const MemorySizing sizing = size_memory(workload.footprint_pages, config);
  return model::estimate(
      workload.profile,
      analytic_config_for(config, sizing, workload.duration_s));
}

WorkloadTraces generate_workload(const synth::WorkloadProfile& profile,
                                 std::uint64_t scale,
                                 const ExperimentConfig& config,
                                 std::uint64_t seed) {
  const synth::WorkloadProfile scaled = profile.scaled(scale);
  synth::GeneratorOptions options;
  options.page_size = config.page_size;
  options.line_size = config.access_granularity;
  options.seed = seed;
  WorkloadTraces traces;
  traces.warmup = synth::generate(scaled, options);
  options.ensure_full_footprint = false;
  options.seed = seed + 1;
  traces.measured = synth::generate(scaled, options);
  traces.duration_s = scaled.roi_seconds;
  return traces;
}

RunResult run_workload(const synth::WorkloadProfile& profile,
                       std::uint64_t scale, const ExperimentConfig& config,
                       std::uint64_t seed) {
  const WorkloadTraces traces = generate_workload(profile, scale, config, seed);
  return run_experiment(traces.warmup, traces.measured, traces.duration_s,
                        config);
}

}  // namespace hymem::sim
