// The sampling tap: the producer half of the sampled-hotness subsystem.
//
// The policy feeds it every access it has just served, and it models a
// PEBS-style sampler: of that stream, every Nth access is "sampled" —
// counted on the HotnessBoard — and the rest are invisible, exactly the
// information loss a real sampling OS pays. Upward hot-threshold crossings
// of NVM-resident pages enter the hot ring; cooling passes (every
// cooling_period samples) push DRAM-resident downward crossings into the
// cold ring. Full rings drop the candidate and count the drop — samples are
// droppable by design.
//
// The tap mutates only its own sampling state (board, rings, counters),
// never placement.
#pragma once

#include <cstdint>

#include "os/vmm.hpp"
#include "sample/config.hpp"
#include "sample/hotness.hpp"
#include "util/spsc_ring.hpp"
#include "util/types.hpp"

namespace hymem::sample {

/// Per-run sampling tap: the producer of candidates into rings it does not
/// own — the policy owns them and its migrator consumes them.
class SamplingTap {
 public:
  SamplingTap(const SampleConfig& config, const os::Vmm& vmm,
              util::SpscRing<PageId>& hot_ring,
              util::SpscRing<PageId>& cold_ring);

  /// Sees one served access; samples it when the period comes round.
  void on_access(PageId page) {
    if (--countdown_ > 0) return;
    countdown_ = config_.sample_period;
    sample(page);
  }

  /// Tap-side counters (the migrator-side ones live in the policy).
  std::uint64_t samples() const { return samples_; }
  std::uint64_t drops() const { return hot_drops_ + cold_drops_; }
  std::uint64_t coolings() const { return coolings_; }
  std::uint64_t hot_ring_hwm() const { return hot_hwm_; }
  std::uint64_t cold_ring_hwm() const { return cold_hwm_; }

  const HotnessBoard& board() const { return board_; }

  /// Zeroes the tap counters without touching the board or the rings (the
  /// learned sampling state *is* the steady state a warmup pass builds).
  /// Restarts the cooling phase.
  void reset_stats() {
    samples_ = hot_drops_ = cold_drops_ = coolings_ = 0;
    hot_hwm_ = cold_hwm_ = 0;
  }

 private:
  void sample(PageId page);

  SampleConfig config_;
  const os::Vmm& vmm_;
  util::SpscRing<PageId>& hot_ring_;
  util::SpscRing<PageId>& cold_ring_;
  HotnessBoard board_;

  std::uint64_t countdown_;  // accesses until the next sample
  std::uint64_t samples_ = 0;
  std::uint64_t hot_drops_ = 0;
  std::uint64_t cold_drops_ = 0;
  std::uint64_t coolings_ = 0;
  std::uint64_t hot_hwm_ = 0;
  std::uint64_t cold_hwm_ = 0;
};

}  // namespace hymem::sample
