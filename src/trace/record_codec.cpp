#include "trace/record_codec.hpp"

#include <algorithm>
#include <cstring>
#include <istream>

namespace hymem::trace {

namespace {

constexpr std::size_t kTypeByte = sizeof(Addr);
constexpr std::size_t kCoreByte = kTypeByte + 1;

std::size_t buffer_records_for(std::uint64_t count) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(count, kBufferRecords));
}

/// Encodes `records` into `out`, which holds records.size() * kRecordBytes.
void encode(std::span<const MemAccess> records, char* out) {
  for (const MemAccess& a : records) {
    std::memcpy(out, &a.addr, sizeof(a.addr));
    out[kTypeByte] = static_cast<char>(a.type);
    out[kCoreByte] = static_cast<char>(a.core);
    out += kRecordBytes;
  }
}

/// Decodes `n` records from `in` into `out`. Returns the index of the first
/// record whose type byte is neither 0 (read) nor 1 (write), or `n` when
/// there is none; the records before that index are decoded.
std::size_t decode(const char* in, std::size_t n, MemAccess* out) {
  for (std::size_t i = 0; i < n; ++i, in += kRecordBytes) {
    const auto type = static_cast<std::uint8_t>(in[kTypeByte]);
    if (type > 1) return i;
    std::memcpy(&out[i].addr, in, sizeof(out[i].addr));
    out[i].type = static_cast<AccessType>(type);
    out[i].core = static_cast<std::uint8_t>(in[kCoreByte]);
  }
  return n;
}

}  // namespace

char* RecordCodec::buffer_for(std::uint64_t records) {
  const std::size_t bytes = buffer_records_for(records) * kRecordBytes;
  if (bytes_.size() < bytes) bytes_.resize(bytes);
  return bytes_.data();
}

void RecordCodec::write(std::ostream& out,
                        std::span<const MemAccess> records) {
  char* const bytes = buffer_for(records.size());
  while (!records.empty()) {
    const std::size_t n = buffer_records_for(records.size());
    encode(records.first(n), bytes);
    out.write(bytes, static_cast<std::streamsize>(n * kRecordBytes));
    records = records.subspan(n);
  }
}

RecordsRead RecordCodec::read(std::istream& in, std::uint64_t count,
                              std::vector<MemAccess>& out) {
  RecordsRead got;
  char* const bytes = buffer_for(count);
  while (got.records < count) {
    const std::size_t want = buffer_records_for(count - got.records);
    in.read(bytes, static_cast<std::streamsize>(want * kRecordBytes));
    const std::size_t n = static_cast<std::size_t>(in.gcount()) / kRecordBytes;
    const std::size_t base = out.size();
    out.resize(base + n);
    const std::size_t decoded = decode(bytes, n, out.data() + base);
    got.records += decoded;
    if (decoded < n) {
      out.resize(base + decoded);
      got.bad_type =
          static_cast<std::uint8_t>(bytes[decoded * kRecordBytes + kTypeByte]);
      return got;
    }
    if (n < want) return got;
  }
  return got;
}

bool read_bytes(std::istream& in, std::uint64_t length, std::string& bytes) {
  bytes.clear();
  while (bytes.size() < length) {
    const std::size_t done = bytes.size();
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(
        length - done, kBufferRecords * kRecordBytes));
    bytes.resize(done + want);
    in.read(bytes.data() + done, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got < want) {
      bytes.resize(done + got);
      return false;
    }
  }
  return true;
}

std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const auto here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1)) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace hymem::trace
