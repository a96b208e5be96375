// Streaming trace I/O for traces too large to materialize.
//
// Chunked binary format (little-endian):
//   magic "HYTS" | u32 version | u32 name_len | name |
//   repeated chunks: u32 record_count | record_count * {u64 addr|u8 type|u8 core}
//   terminated by a chunk with record_count == 0.
//
// Unlike trace_io's monolithic format, a writer never needs to know the
// total record count up front (no seeking), and a reader holds only one
// chunk in memory — so multi-billion-access captures stream through
// constant memory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "trace/access.hpp"

namespace hymem::trace {

inline constexpr std::uint32_t kStreamFormatVersion = 1;

/// Appends records to a chunked stream; finish() writes the terminator.
class StreamTraceWriter {
 public:
  /// `chunk_records` bounds both buffering and reader memory.
  StreamTraceWriter(std::ostream& out, std::string name,
                    std::size_t chunk_records = 1 << 16);
  ~StreamTraceWriter();
  StreamTraceWriter(const StreamTraceWriter&) = delete;
  StreamTraceWriter& operator=(const StreamTraceWriter&) = delete;

  void append(const MemAccess& access);
  std::uint64_t written() const { return written_; }

  /// Flushes the pending chunk and writes the terminator. Idempotent;
  /// called by the destructor if forgotten.
  void finish();

 private:
  void flush_chunk();

  std::ostream& out_;
  std::size_t chunk_records_;
  std::vector<MemAccess> pending_;
  std::uint64_t written_ = 0;
  bool finished_ = false;
};

/// Pulls records one at a time from a chunked stream.
///
/// Every parse error is a std::runtime_error whose message carries the byte
/// offset where decoding failed (and, inside a chunk, the offset and declared
/// record count of that chunk's header) — a truncated or corrupt capture
/// names the exact spot instead of silently ending the trace early.
class StreamTraceReader {
 public:
  /// Parses the header; throws std::runtime_error on malformed input.
  explicit StreamTraceReader(std::istream& in);

  const std::string& name() const { return name_; }

  /// Next record, or nullopt at the terminator.
  ///
  /// Inline, and the record is rebuilt from its fields, so a caller's loop
  /// keeps it in registers. Copied whole into the optional, a packed
  /// MemAccess goes through the stack with overlapping stores and loads
  /// that defeat store forwarding (GCC 12: about 30 ns a record, against
  /// 1 ns this way).
  std::optional<MemAccess> next() {
    if (cursor_ < chunk_.size()) {
      ++read_;
      const MemAccess& record = chunk_[cursor_++];
      return MemAccess{record.addr, record.type, record.core};
    }
    return next_in_new_chunk();
  }

  std::uint64_t read_count() const { return read_; }

  /// Bytes consumed from the start of the stream so far.
  std::uint64_t byte_offset() const { return offset_; }

  /// Restarts the record sequence from the first chunk (multi-pass replay;
  /// warmup passes of the streaming engine). Requires a seekable stream —
  /// throws std::runtime_error when the seek fails (e.g. a pipe).
  void rewind();

 private:
  bool load_chunk();
  /// next() once the current chunk is used up.
  std::optional<MemAccess> next_in_new_chunk();
  template <typename T>
  T take(const char* what);

  std::istream& in_;
  std::string name_;
  std::vector<MemAccess> chunk_;
  std::size_t cursor_ = 0;
  std::uint64_t read_ = 0;
  std::uint64_t offset_ = 0;       ///< Bytes consumed so far.
  std::uint64_t data_offset_ = 0;  ///< Offset of the first chunk header.
  bool done_ = false;
};

}  // namespace hymem::trace
