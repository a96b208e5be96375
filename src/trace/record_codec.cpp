#include "trace/record_codec.hpp"

#include <algorithm>
#include <istream>

namespace hymem::trace {

void write_records(std::ostream& out, std::span<const MemAccess> records) {
  const std::span<const std::byte> bytes = std::as_bytes(records);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

RecordsRead read_records(std::istream& in, std::uint64_t count,
                         std::vector<MemAccess>& out) {
  RecordsRead got;
  while (got.records < count) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(count - got.records, kBufferRecords));
    const std::size_t base = out.size();
    out.resize(base + want);
    in.read(reinterpret_cast<char*>(out.data() + base),
            static_cast<std::streamsize>(want * kRecordBytes));
    const std::size_t n = static_cast<std::size_t>(in.gcount()) / kRecordBytes;
    const auto first = out.begin() + static_cast<std::ptrdiff_t>(base);
    const auto bad =
        std::find_if(first, first + static_cast<std::ptrdiff_t>(n),
                     [](const MemAccess& a) {
                       return static_cast<std::uint8_t>(a.type) > 1;
                     });
    const auto good = static_cast<std::size_t>(bad - first);
    got.records += good;
    if (good < n) got.bad_type = static_cast<std::uint8_t>(bad->type);
    out.resize(base + good);
    if (good < want) return got;
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
