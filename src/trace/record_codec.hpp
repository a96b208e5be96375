// The access record both binary trace formats share.
//
// trace_io's HYTR and stream_io's HYTS store a MemAccess as the same
// 10-byte little-endian record, `u64 addr | u8 type | u8 core`, and their
// headers as little-endian integers. This codec is the one place that knows
// that layout. It moves records through one buffer of at most
// kBufferRecords records per stream read or write, instead of three stream
// calls per record. The buffer is bounded rather than file-sized: a read or
// write holds at most 640 KiB of encoded bytes however large the trace, so
// the decoded records stay the only copy whose size follows the file.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "trace/access.hpp"

namespace hymem::trace {

// Records and header fields are copied to and from memory as they are.
static_assert(std::endian::native == std::endian::little,
              "hymem trace formats are little-endian; add byte swaps to "
              "record_codec before building on a big-endian host");

/// Encoded size of one record.
inline constexpr std::size_t kRecordBytes = sizeof(std::uint64_t) + 2;

/// Most records one read or write call moves.
inline constexpr std::size_t kBufferRecords = std::size_t{1} << 16;

/// Writes one header field.
template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// How far RecordCodec::read got.
struct RecordsRead {
  std::uint64_t records = 0;  ///< Records decoded and appended.
  /// Type byte of record `records` when decoding stopped at a bad type.
  std::optional<std::uint8_t> bad_type;
};

/// Moves records between a stream and memory through one encoded-byte
/// buffer, kept across calls so a chunked stream reuses it chunk after
/// chunk. The buffer grows to the largest call's size, capped at
/// kBufferRecords records.
class RecordCodec {
 public:
  /// Encodes and writes `records`, at most kBufferRecords per write call.
  void write(std::ostream& out, std::span<const MemAccess> records);

  /// Reads and decodes up to `count` records onto the end of `out`, at
  /// most kBufferRecords per read call. Stops early at the end of the
  /// stream or at a record with a bad type byte. `out` grows only by the
  /// records the stream delivers, so a corrupt count costs at most one
  /// buffer.
  RecordsRead read(std::istream& in, std::uint64_t count,
                   std::vector<MemAccess>& out);

 private:
  /// The buffer, grown to hold min(records, kBufferRecords) records.
  char* buffer_for(std::uint64_t records);

  std::vector<char> bytes_;
};

/// Reads `length` bytes into `bytes`, growing it as they arrive (a corrupt
/// length allocates no more than the stream holds plus one buffer). Returns
/// false when the stream ends first.
bool read_bytes(std::istream& in, std::uint64_t length, std::string& bytes);

/// Bytes between the read position and the end of the stream, or nullopt
/// when the stream cannot seek (a pipe).
std::optional<std::uint64_t> remaining_bytes(std::istream& in);

}  // namespace hymem::trace
