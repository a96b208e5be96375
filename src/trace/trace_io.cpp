#include "trace/trace_io.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "trace/record_codec.hpp"

namespace hymem::trace {

namespace {

constexpr std::array<char, 4> kMagic = {'H', 'Y', 'T', 'R'};

template <typename T>
T take(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("hymem trace: truncated binary trace");
  return value;
}

}  // namespace

void write_binary(const Trace& trace, std::ostream& out) {
  out.write(kMagic.data(), kMagic.size());
  put<std::uint32_t>(out, kTraceFormatVersion);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.name().size()));
  out.write(trace.name().data(),
            static_cast<std::streamsize>(trace.name().size()));
  put<std::uint64_t>(out, trace.size());
  RecordCodec().write(out, trace.accesses());
}

Trace read_binary(std::istream& in) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw std::runtime_error("hymem trace: bad magic");
  }
  const auto version = take<std::uint32_t>(in);
  if (version != kTraceFormatVersion) {
    throw std::runtime_error("hymem trace: unsupported version " +
                             std::to_string(version));
  }
  const auto name_len = take<std::uint32_t>(in);
  std::string name;
  if (!read_bytes(in, name_len, name)) {
    throw std::runtime_error("hymem trace: truncated name");
  }
  const std::uint64_t count_offset = 12 + std::uint64_t{name_len};
  const auto count = take<std::uint64_t>(in);
  std::vector<MemAccess> accesses;
  // A seekable stream lets a corrupt count fail here, naming the header,
  // and lets a good one size the trace exactly; otherwise the trace grows
  // as records arrive.
  if (const auto left = remaining_bytes(in)) {
    if (count > *left / kRecordBytes) {
      throw std::runtime_error(
          "hymem trace: record count " + std::to_string(count) + " at byte " +
          std::to_string(count_offset) + " exceeds the " +
          std::to_string(*left) + " record bytes that remain");
    }
    accesses.reserve(count);
  }
  const RecordsRead got = RecordCodec().read(in, count, accesses);
  if (got.bad_type) {
    const std::uint64_t record_offset =
        count_offset + sizeof(count) + got.records * kRecordBytes;
    throw std::runtime_error("hymem trace: bad access type " +
                             std::to_string(*got.bad_type) + " at byte " +
                             std::to_string(record_offset + sizeof(Addr)));
  }
  if (got.records < count) {
    throw std::runtime_error("hymem trace: truncated binary trace");
  }
  return Trace(std::move(name), std::move(accesses));
}

void write_text(const Trace& trace, std::ostream& out) {
  out << "# hymem trace: " << trace.name() << '\n';
  for (const auto& a : trace) {
    out << (a.type == AccessType::kRead ? 'R' : 'W') << " 0x" << std::hex
        << a.addr << std::dec << ' ' << static_cast<int>(a.core) << '\n';
  }
}

Trace read_text(std::istream& in, std::string name) {
  Trace trace(std::move(name));
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    char kind = 0;
    std::string addr_str;
    int core = 0;
    ls >> kind >> addr_str;
    if (!(ls >> core)) core = 0;
    if (!ls && ls.fail() && addr_str.empty()) {
      throw std::runtime_error("hymem trace: parse error at line " +
                               std::to_string(line_no));
    }
    AccessType type;
    if (kind == 'R' || kind == 'r') {
      type = AccessType::kRead;
    } else if (kind == 'W' || kind == 'w') {
      type = AccessType::kWrite;
    } else {
      throw std::runtime_error("hymem trace: bad access kind at line " +
                               std::to_string(line_no));
    }
    const Addr addr = std::stoull(addr_str, nullptr, 0);
    trace.append(addr, type, static_cast<std::uint8_t>(core));
  }
  return trace;
}

void save(const Trace& trace, const std::string& path) {
  const bool binary = path.size() >= 4 && path.ends_with(".trc");
  std::ofstream out(path, binary ? std::ios::binary : std::ios::out);
  if (!out) throw std::runtime_error("hymem trace: cannot open " + path);
  if (binary) {
    write_binary(trace, out);
  } else {
    write_text(trace, out);
  }
}

Trace load(const std::string& path) {
  const bool binary = path.size() >= 4 && path.ends_with(".trc");
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) throw std::runtime_error("hymem trace: cannot open " + path);
  return binary ? read_binary(in) : read_text(in, path);
}

}  // namespace hymem::trace
