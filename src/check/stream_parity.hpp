// Stream-parity harness: the block engine against a per-access reference.
//
// The block engine (sim::run_blocks) promises results byte-identical to
// serving the trace one access at a time through HybridPolicy::on_access,
// for every policy, at any block size (one access up to the whole trace)
// and with the epoch sampler cutting blocks at its boundaries. The
// reference is a plain on_access loop that lives here, so each policy's
// serve_block instantiation is diffed against per-access serving with its
// demand counters recorded at once. run_stream_parity() replays one trace
// through the reference and through trace::TraceBlockSource blocks and
// diffs the complete serialized RunResult (counts, summed visible latency,
// derived Eq. 1/2/3 metrics) and the epoch timeline CSV.
//
// run_stream_parity_case() wraps it for fuzzing: the trace and memory shape
// derive from a seed through the same check/fuzzer scenarios that feed the
// differential harness, so the hostile shapes (thrash loops, write bursts,
// capacity-1 modules) exercise the block seam too.
#pragma once

#include <cstdint>
#include <string>

#include "check/fuzzer.hpp"
#include "trace/trace.hpp"

namespace hymem::check {

/// Outcome of one parity check.
struct StreamParityResult {
  std::uint64_t accesses = 0;
  /// The policy and the first differing line of the serialized results;
  /// empty when the block engine reproduced the reference bytes.
  std::string divergence;

  bool ok() const { return divergence.empty(); }
};

/// Replays `fc.trace` under the policy named `policy` (any
/// sim::policy_names() entry, built by sim::make_policy with `fc`'s
/// migration config and the default sample config) on `fc`'s memory shape
/// through the per-access reference and through the block engine with
/// `block_accesses`-sized blocks, sampling epochs of `epoch_length`
/// accesses, and diffs the full serialized results and timelines. A
/// single-tier policy gets both modules' frames in its own module.
StreamParityResult run_stream_parity(const std::string& policy,
                                     const FuzzCase& fc,
                                     std::size_t block_accesses,
                                     std::uint64_t epoch_length);

/// One fuzz iteration: derive the scenario for `seed` and check it.
/// The block size also derives from the seed (1 to ~accesses, covering the
/// degenerate one-access blocks and the whole-trace block), and so does the
/// epoch length.
StreamParityResult run_stream_parity_case(const std::string& policy,
                                          std::uint64_t seed,
                                          std::size_t accesses);

}  // namespace hymem::check
