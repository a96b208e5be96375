#include "check/stream_parity.hpp"

#include <iomanip>
#include <memory>
#include <sstream>

#include "core/migration_scheme.hpp"
#include "obs/epoch.hpp"
#include "obs/timeline_io.hpp"
#include "os/vmm.hpp"
#include "sim/engine.hpp"
#include "sim/policy_factory.hpp"
#include "sim/results_io.hpp"
#include "trace/access.hpp"
#include "trace/block_source.hpp"
#include "trace/stream_io.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace hymem::check {

namespace {

constexpr double kDurationS = 1.0;

/// The memory shape `policy` runs `fc` on: single-tier policies get both
/// modules' frames in their own module.
os::VmmConfig vmm_config(const std::string& policy, const FuzzCase& fc) {
  os::VmmConfig config;
  config.dram_frames = fc.dram_frames;
  config.nvm_frames = fc.nvm_frames;
  if (policy == "dram-only") {
    config.dram_frames += config.nvm_frames;
    config.nvm_frames = 0;
  } else if (policy == "nvm-only") {
    config.nvm_frames += config.dram_frames;
    config.dram_frames = 0;
  }
  return config;
}

/// Fresh policy stack for one replay: every mode starts from cold memory.
struct Stack {
  os::Vmm vmm;
  std::unique_ptr<policy::HybridPolicy> policy;
  obs::EpochSampler sampler;

  Stack(const std::string& name, const FuzzCase& fc,
        std::uint64_t epoch_length)
      : vmm(vmm_config(name, fc)),
        policy(sim::make_policy(name, vmm, fc.migration)),
        sampler(epoch_length, vmm,
                dynamic_cast<const core::TwoLruMigrationPolicy*>(policy.get()),
                kDurationS,
                dynamic_cast<const obs::SampledStatsSource*>(policy.get())) {}
};

/// The reference: every access decoded and served on its own through
/// on_access, each one recorded with the sampler as it completes.
sim::RunResult reference_run(Stack& stack, const trace::Trace& trace) {
  const std::uint64_t page_size = stack.vmm.config().page_size;
  sim::RunResult result;
  result.policy = std::string(stack.policy->name());
  result.workload = trace.name();
  result.duration_s = kDurationS;
  for (const trace::MemAccess& access : trace.accesses()) {
    const Nanoseconds latency = stack.policy->on_access(
        trace::page_of(access.addr, page_size), access.type);
    result.visible_latency_ns += latency;
    stack.sampler.record(&latency, 1);
  }
  stack.policy->stop_background();
  stack.sampler.finish();
  result.accesses = trace.size();
  result.timeline = stack.sampler.take_timeline();
  result.counts = model::EventCounts::from_vmm(stack.vmm, result.accesses);
  result.params = model::ModelParams::from_vmm(stack.vmm);
  return result;
}

/// Serialized result, summed visible latency and timeline: the bytes every
/// mode must match.
std::string bytes_of(const sim::RunResult& result) {
  std::ostringstream out;
  out << sim::to_json(result) << '\n'
      << "visible_latency_ns " << std::setprecision(17)
      << result.visible_latency_ns << '\n';
  obs::write_timeline_csv(result.timeline, out);
  return out.str();
}

/// The HYTS serialization of the case's trace (what a capture would ship).
std::string encode_stream(const trace::Trace& trace,
                          std::size_t chunk_records) {
  std::ostringstream bytes;
  trace::StreamTraceWriter writer(bytes, trace.name(), chunk_records);
  for (const auto& access : trace.accesses()) writer.append(access);
  writer.finish();
  return bytes.str();
}

}  // namespace

StreamParityResult run_stream_parity(const std::string& policy,
                                     const FuzzCase& fc,
                                     std::size_t block_accesses,
                                     std::uint64_t epoch_length) {
  HYMEM_CHECK_MSG(!fc.trace.empty(), "stream parity over an empty trace");
  HYMEM_CHECK_MSG(block_accesses > 0, "block size must be positive");
  StreamParityResult out;
  out.accesses = fc.trace.size();

  std::string reference;
  {
    Stack stack(policy, fc, epoch_length);
    reference = bytes_of(reference_run(stack, fc.trace));
  }

  const auto diff = [&](const char* mode, const sim::RunResult& result) {
    const std::string got = bytes_of(result);
    if (got == reference) return true;
    // Name the first differing line so the report points at a field, not
    // just at the mode.
    std::istringstream want_lines(reference);
    std::istringstream got_lines(got);
    std::string want_line;
    std::string got_line;
    while (std::getline(want_lines, want_line) &&
           std::getline(got_lines, got_line)) {
      if (want_line != got_line) break;
    }
    out.divergence = policy + " " + mode + ": reference " + want_line +
                     " != " + got_line;
    return false;
  };

  {
    Stack stack(policy, fc, epoch_length);
    trace::TraceBlockSource source(fc.trace, stack.vmm.config().page_size,
                                   block_accesses);
    if (!diff("blocks", sim::run_blocks(*stack.policy, source, nullptr, 0,
                                        kDurationS, &stack.sampler))) {
      return out;
    }
  }
  const std::string bytes = encode_stream(fc.trace, block_accesses);
  for (const bool readahead : {false, true}) {
    Stack stack(policy, fc, epoch_length);
    std::istringstream in(bytes);
    trace::StreamBlockSource source(in, stack.vmm.config().page_size,
                                    block_accesses, readahead);
    if (!diff(readahead ? "stream+readahead" : "stream",
              sim::run_blocks(*stack.policy, source, nullptr, 0, kDurationS,
                              &stack.sampler))) {
      return out;
    }
  }
  return out;
}

StreamParityResult run_stream_parity_case(const std::string& policy,
                                          std::uint64_t seed,
                                          std::size_t accesses) {
  const FuzzCase fc = make_fuzz_case(seed, accesses);
  // Block size and epoch length from the seed's own stream: blocks from 1
  // (degenerate per-access blocks) up past the trace length (one
  // whole-trace block), epochs from 1 to about a quarter of the trace, so
  // boundaries land at every offset inside a block.
  std::uint64_t state = seed ^ 0x5741525354524dULL;
  const std::size_t block_accesses =
      1 + static_cast<std::size_t>(splitmix64(state) %
                                   (fc.trace.size() + 7));
  const std::uint64_t epoch_length =
      1 + splitmix64(state) % (fc.trace.size() / 4 + 1);
  return run_stream_parity(policy, fc, block_accesses, epoch_length);
}

}  // namespace hymem::check
