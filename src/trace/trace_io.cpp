#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "trace/record_codec.hpp"

namespace hymem::trace {

namespace {

constexpr std::array<char, 4> kMagic = {'H', 'Y', 'T', 'R'};
/// First line of the text format; the trace name follows it.
constexpr std::string_view kTextHeader = "# hymem trace: ";

template <typename T>
T take(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("hymem trace: truncated binary trace");
  return value;
}

/// The whitespace-separated fields of a text line.
std::vector<std::string_view> split_fields(std::string_view line) {
  constexpr std::string_view kSpace = " \t\r\v\f";
  std::vector<std::string_view> fields;
  for (std::size_t at = line.find_first_not_of(kSpace);
       at != std::string_view::npos; at = line.find_first_not_of(kSpace, at)) {
    const std::size_t end =
        std::min(line.find_first_of(kSpace, at), line.size());
    fields.push_back(line.substr(at, end - at));
    at = end;
  }
  return fields;
}

/// `text` as a whole unsigned number in `base`: no sign, nothing after it,
/// no overflow of T.
template <typename T>
std::optional<T> parse_whole(std::string_view text, int base) {
  T value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// An address field as strtoull reads base 0: "0x" hex, a leading 0 octal,
/// otherwise decimal.
std::optional<Addr> parse_address(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X")) {
    return parse_whole<Addr>(text.substr(2), 16);
  }
  if (text.size() > 1 && text[0] == '0') {
    return parse_whole<Addr>(text.substr(1), 8);
  }
  return parse_whole<Addr>(text, 10);
}

}  // namespace

void write_binary(const Trace& trace, std::ostream& out) {
  out.write(kMagic.data(), kMagic.size());
  put<std::uint32_t>(out, kTraceFormatVersion);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(trace.name().size()));
  out.write(trace.name().data(),
            static_cast<std::streamsize>(trace.name().size()));
  put<std::uint64_t>(out, trace.size());
  write_records(out, trace.accesses());
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
  const RecordsRead got = read_records(in, count, accesses);
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
  out << kTextHeader << trace.name() << '\n';
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
    if (line_no == 1 && line.starts_with(kTextHeader)) {
      trace.set_name(line.substr(kTextHeader.size()));
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const auto fail = [line_no](const std::string& what) {
      return std::runtime_error("hymem trace: " + what + " at line " +
                                std::to_string(line_no));
    };
    const std::vector<std::string_view> fields = split_fields(line);
    if (fields.empty()) continue;
    AccessType type;
    if (fields[0] == "R" || fields[0] == "r") {
      type = AccessType::kRead;
    } else if (fields[0] == "W" || fields[0] == "w") {
      type = AccessType::kWrite;
    } else {
      throw fail("bad access kind \"" + std::string(fields[0]) + "\"");
    }
    if (fields.size() < 2) throw fail("missing address");
    if (fields.size() > 3) throw fail("trailing field");
    const std::optional<Addr> addr = parse_address(fields[1]);
    if (!addr) throw fail("bad address \"" + std::string(fields[1]) + "\"");
    const std::optional<std::uint8_t> core =
        fields.size() == 3 ? parse_whole<std::uint8_t>(fields[2], 10)
                           : std::uint8_t{0};
    if (!core) throw fail("bad core \"" + std::string(fields[2]) + "\"");
    trace.append(*addr, type, *core);
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
