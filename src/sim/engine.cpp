#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace hymem::sim {

namespace {

/// What one pass served: its accesses and their summed visible latency.
struct PassTotals {
  std::uint64_t accesses = 0;
  Nanoseconds visible_latency_ns = 0;
};

/// One pass over `source`: serves every block through the policy. With a
/// sampler, blocks are cut at epoch boundaries and each part is recorded
/// once the policy has served it.
PassTotals replay(policy::HybridPolicy& policy,
                  trace::TraceBlockSource& source,
                  obs::EpochSampler* sampler) {
  PassTotals totals;
  std::vector<Nanoseconds> latencies;
  while (const trace::DecodedBlock* block = source.next()) {
    if (sampler != nullptr && latencies.size() < block->size) {
      latencies.resize(block->size);
    }
    for (std::size_t done = 0; done < block->size;) {
      policy::AccessBlock part{block->pages + done, block->types + done,
                               block->hashes + done, block->size - done};
      if (sampler != nullptr) {
        part.size = static_cast<std::size_t>(std::min<std::uint64_t>(
            part.size, sampler->until_boundary()));
        part.latencies = latencies.data();
      }
      totals.visible_latency_ns += policy.on_block(part);
      if (sampler != nullptr) sampler->record(part.latencies, part.size);
      done += part.size;
    }
    totals.accesses += block->size;
  }
  return totals;
}

}  // namespace

RunResult run_blocks(policy::HybridPolicy& policy,
                     trace::TraceBlockSource& measured,
                     trace::TraceBlockSource* warmup, unsigned warmup_passes,
                     double duration_s, obs::EpochSampler* sampler) {
  os::Vmm& vmm = policy.vmm();
  if (warmup != nullptr && warmup_passes > 0) {
    for (unsigned pass = 0; pass < warmup_passes; ++pass) {
      if (pass > 0) warmup->rewind();
      replay(policy, *warmup, nullptr);
    }
    vmm.reset_accounting();
    policy.reset_stats();
    if (warmup == &measured) measured.rewind();
  }
  RunResult result;
  result.policy = std::string(policy.name());
  result.workload = measured.name();
  result.duration_s = duration_s;
  const PassTotals totals = replay(policy, measured, sampler);
  if (totals.accesses == 0) {
    throw std::invalid_argument("empty trace: \"" + measured.name() +
                                "\" has no accesses to replay");
  }
  result.accesses = totals.accesses;
  result.visible_latency_ns = totals.visible_latency_ns;
  if (sampler != nullptr) {
    sampler->finish();
    result.timeline = sampler->take_timeline();
  }
  result.counts = model::EventCounts::from_vmm(vmm, result.accesses);
  result.params = model::ModelParams::from_vmm(vmm);
  if (const auto* sampled =
          dynamic_cast<const obs::SampledStatsSource*>(&policy)) {
    result.sampled = sampled->sampled_stats();
    result.has_sampled = true;
  }
  return result;
}

}  // namespace hymem::sim
