// Block source: the decoded-block ingest layer of the replay engine.
//
// The engine's unit of work is a DecodedBlock — parallel arrays of page IDs,
// access types and memoized page-ID hashes. TraceBlockSource produces a
// run's blocks in trace order and can rewind for warmup passes; the engine
// never sees raw byte addresses. It decodes a window of a materialized trace
// on each next(), while the policy is about to touch it (the page shift and
// the hash mixer cost far less than keeping a decoded copy of the trace),
// into buffers it reuses, so run memory beyond the trace is O(block).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/types.hpp"

namespace hymem::trace {

/// Accesses per block when the caller does not choose (every experiment
/// run). Results do not depend on it; it only trades per-block overhead
/// against the cache footprint of the decoded arrays.
inline constexpr std::size_t kBlockAccesses = std::size_t{1} << 12;

/// One decoded block of replay work. Views into source-owned storage, valid
/// until the next next()/rewind() on the producing source.
struct DecodedBlock {
  const PageId* pages = nullptr;
  const AccessType* types = nullptr;
  const std::uint64_t* hashes = nullptr;  ///< hash_page_id(pages[i]), memoized.
  std::size_t size = 0;
};

/// Source over a materialized trace: next() decodes the following
/// `block_accesses` accesses (page shift for power-of-two page sizes, the
/// page_of division otherwise, then the hash mixer) into reused buffers.
/// `trace` must outlive the source.
class TraceBlockSource {
 public:
  /// `block_accesses` 0 serves the whole trace as a single block.
  TraceBlockSource(const Trace& trace, std::uint64_t page_size,
                   std::size_t block_accesses = kBlockAccesses);

  const std::string& name() const { return trace_.name(); }

  /// Next block of the current pass, or nullptr at the end. The returned
  /// view is valid until the following next()/rewind().
  const DecodedBlock* next();

  /// Restarts the block sequence from the beginning (warmup passes).
  void rewind() { cursor_ = 0; }

 private:
  const Trace& trace_;
  std::uint64_t page_size_;
  int shift_;  ///< log2(page_size), or -1 when it is not a power of two.
  std::size_t block_accesses_;
  std::vector<PageId> pages_;
  std::vector<AccessType> types_;
  std::vector<std::uint64_t> hashes_;
  std::size_t cursor_ = 0;
  DecodedBlock view_;
};

}  // namespace hymem::trace
