// Block sources: the decoded-block ingest layer of the streaming replay
// engine.
//
// The engine's unit of work is a DecodedBlock — parallel arrays of page IDs,
// access types and memoized page-ID hashes. A BlockSource produces the run's
// blocks in trace order and can rewind for warmup passes; the engine never
// sees raw byte addresses. Both sources decode one block at a time into
// buffers they reuse, so run memory beyond the input is O(block):
//
//   * TraceBlockSource decodes a window of a materialized trace on each
//     next(), while the policy is about to touch it (the page shift and the
//     hash mixer cost far less than keeping a decoded copy of the trace).
//   * StreamBlockSource pulls the chunked stream_io format and holds only
//     two blocks of memory: with readahead on, a producer thread decodes
//     block N+1 while the consumer replays block N (double buffering), for
//     captures too large to materialize.
//
// Both sources emit identical block sequences for the same input, so every
// consumer downstream of this seam is byte-identical across ingest modes —
// the property tests/integration/test_stream_parity.cpp pins.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/stream_io.hpp"
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

/// Produces a run's decoded blocks in trace order.
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  virtual const std::string& name() const = 0;
  virtual std::uint64_t page_size() const = 0;

  /// Next block of the current pass, or nullptr at the end. The returned
  /// view is valid until the following next()/rewind().
  virtual const DecodedBlock* next() = 0;

  /// Restarts the block sequence from the beginning (warmup passes).
  virtual void rewind() = 0;
};

/// Source over a materialized trace: next() decodes the following
/// `block_accesses` accesses (page shift for power-of-two page sizes, the
/// page_of division otherwise, then the hash mixer) into reused buffers.
/// `trace` must outlive the source.
class TraceBlockSource final : public BlockSource {
 public:
  /// `block_accesses` 0 serves the whole trace as a single block.
  TraceBlockSource(const Trace& trace, std::uint64_t page_size,
                   std::size_t block_accesses = kBlockAccesses);

  const std::string& name() const override { return trace_.name(); }
  std::uint64_t page_size() const override { return page_size_; }
  const DecodedBlock* next() override;
  void rewind() override { cursor_ = 0; }

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

/// Streaming source over the chunked stream_io format: O(block) memory.
///
/// With `readahead` on, a producer thread decodes the next block into the
/// idle half of a double buffer while the consumer replays the other half;
/// next() blocks only when the producer has not finished yet. With it off,
/// next() decodes synchronously — same block sequence, no second thread.
class StreamBlockSource final : public BlockSource {
 public:
  /// `in` must outlive the source; rewind() requires it to be seekable.
  StreamBlockSource(std::istream& in, std::uint64_t page_size,
                    std::size_t block_accesses = kBlockAccesses,
                    bool readahead = true);
  ~StreamBlockSource() override;

  const std::string& name() const override { return reader_.name(); }
  std::uint64_t page_size() const override { return page_size_; }
  const DecodedBlock* next() override;
  void rewind() override;

 private:
  /// One half of the double buffer.
  struct Buffer {
    std::vector<PageId> pages;
    std::vector<AccessType> types;
    std::vector<std::uint64_t> hashes;
    std::size_t size = 0;
    bool filled = false;  ///< Producer wrote it; consumer has not taken it.
    bool eof = false;     ///< No records behind this buffer's contents.
  };

  /// Decodes up to one block from the reader into `buf` (caller owns
  /// synchronization). Sets buf.eof when the stream is exhausted.
  void fill(Buffer& buf);
  void start_producer();
  void stop_producer();
  void producer_loop();

  StreamTraceReader reader_;
  std::uint64_t page_size_;
  std::size_t block_accesses_;
  bool readahead_;

  Buffer buffers_[2];
  std::size_t consume_index_ = 0;  ///< Next buffer the consumer takes.
  std::size_t produce_index_ = 0;  ///< Next buffer the producer fills.
  int holding_ = -1;               ///< Buffer backing the live view, or -1.
  bool finished_ = false;          ///< All records behind delivered blocks.
  DecodedBlock view_;

  std::thread producer_;
  std::mutex mutex_;
  std::condition_variable filled_cv_;  ///< Signals consumer: buffer ready.
  std::condition_variable free_cv_;    ///< Signals producer: buffer free.
  bool stop_ = false;
  std::exception_ptr producer_error_;
};

}  // namespace hymem::trace
