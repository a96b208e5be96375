// The access record of the binary trace format.
//
// trace_io's HYTR format stores a MemAccess as a 10-byte little-endian
// record, `u64 addr | u8 type | u8 core`, and its header fields as
// little-endian integers. MemAccess is packed to that layout, so records
// move between a stream and memory as they are: a write is one stream call
// over the records, and a read lands straight in the trace's vector, at
// most kBufferRecords records a call, and checks the type bytes where they
// landed. No second copy of the records exists at any time.
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

static_assert(sizeof(MemAccess) == kRecordBytes &&
                  offsetof(MemAccess, type) == 8 &&
                  offsetof(MemAccess, core) == 9,
              "MemAccess must be the record `u64 addr | u8 type | u8 core`");
static_assert(std::is_trivially_copyable_v<MemAccess>);

/// Most records one read call moves, which bounds how far a corrupt count
/// grows the destination before the stream runs out.
inline constexpr std::size_t kBufferRecords = std::size_t{1} << 16;

/// Writes one header field.
template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// How far read_records got.
struct RecordsRead {
  std::uint64_t records = 0;  ///< Records read and appended.
  /// Type byte of record `records` when reading stopped at a bad type.
  std::optional<std::uint8_t> bad_type;
};

/// Writes `records` in one stream call.
void write_records(std::ostream& out, std::span<const MemAccess> records);

/// Reads up to `count` records onto the end of `out`, at most
/// kBufferRecords per read call. Stops early at the end of the stream or at
/// a record whose type byte is neither 0 (read) nor 1 (write). `out` grows
/// by at most kBufferRecords records past what the stream delivers, so a
/// corrupt count costs at most one buffer.
RecordsRead read_records(std::istream& in, std::uint64_t count,
                         std::vector<MemAccess>& out);

/// Reads `length` bytes into `bytes`, growing it as they arrive (a corrupt
/// length allocates no more than the stream holds plus one buffer). Returns
/// false when the stream ends first.
bool read_bytes(std::istream& in, std::uint64_t length, std::string& bytes);

/// Bytes between the read position and the end of the stream, or nullopt
/// when the stream cannot seek (a pipe).
std::optional<std::uint64_t> remaining_bytes(std::istream& in);

}  // namespace hymem::trace
