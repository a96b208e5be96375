// Randomized trace + configuration fuzzing for the differential harness.
//
// Every fuzz case is a pure function of (seed, accesses): the memory shape
// (including adversarial capacity-1 modules), the scheme's window fractions
// and thresholds (including fractional perc*capacity products and zero/full
// windows), and a trace stitched from hostile segment shapes — zipf
// hot-sets, sequential ramps, scans wider than memory, phase changes,
// all-write bursts, single-page hammers, and thrash loops sized exactly one
// past the NVM window boundaries. Seeds derive through the same splitmix64
// convention as the sweep runner, so a failing case is reproducible from
// its seed alone.
#pragma once

#include <cstdint>
#include <string>

#include "core/migration_config.hpp"
#include "trace/trace.hpp"

namespace hymem::check {

/// One deterministic fuzz scenario.
struct FuzzCase {
  std::uint64_t seed = 0;
  std::size_t dram_frames = 0;
  std::size_t nvm_frames = 0;
  core::MigrationConfig migration;
  trace::Trace trace;

  /// One-line reproduction header: seed, shape, tunables.
  std::string describe() const;
};

/// Derives the full scenario for `seed` with (about) `accesses` requests.
FuzzCase make_fuzz_case(std::uint64_t seed, std::size_t accesses);

/// Renders a trace as one "R<page>"/"W<page>" token per access — the
/// representation shrunken repros are reported in.
std::string format_trace(const trace::Trace& trace);

}  // namespace hymem::check
