// Memory-level synthetic trace generator.
//
// Produces a main-memory access stream (the equivalent of the paper's
// post-LLC COTSon capture) whose Table III columns match the profile
// *exactly*: total reads, total writes, and distinct-page footprint. The
// locality machinery (Zipf hot set, sequential scans, geometric bursts,
// hot-set churn, per-page write bias) shapes *where* those accesses land.
#pragma once

#include <cstdint>

#include "synth/workload_profile.hpp"
#include "trace/trace.hpp"

namespace hymem::synth {

/// Knobs independent of the workload profile.
struct GeneratorOptions {
  std::uint64_t page_size = 4096;
  std::uint64_t line_size = 64;  ///< Addresses are aligned to this.
  std::uint64_t seed = 42;
  /// Guarantee every footprint page is touched at least once so the
  /// generated working-set size equals the profile's (Table III exactness).
  bool ensure_full_footprint = true;
};

/// Generates one trace. Deterministic in (profile, options). The trace
/// carries a footprint record (its distinct pages at options.page_size), so
/// trace::distinct_pages does not count them again.
trace::Trace generate(const WorkloadProfile& profile,
                      const GeneratorOptions& options = {});

}  // namespace hymem::synth
