// Deterministic byte-mutation fuzz over the trace readers: the binary
// format (HYTR read_binary) and the text format (read_text). Every mutated
// encoding of a small valid trace must either decode or throw
// std::runtime_error, through a seekable and a non-seekable stream alike:
// never another exception type, a crash, or an allocation sized by a
// corrupt field (tier1, so the ASan+UBSan job runs it). Each test stops at
// its first misbehaving input and prints the seed and mutation that
// reproduce it.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "io_support.hpp"
#include "trace/trace_io.hpp"
#include "util/random.hpp"

namespace hymem::trace {
namespace {

/// A field whose value sizes what a reader reads or allocates.
struct SizeField {
  std::size_t offset;
  std::size_t width;  ///< 4 (u32) or 8 (u64) bytes.
  std::string label;
};

struct Format {
  std::string name;
  std::string bytes;
  void (*decode)(std::istream&);
  std::vector<SizeField> size_fields;
};

Trace small_trace() {
  Trace trace("fuzz");
  for (Addr a = 0; a < 5; ++a) {
    trace.append(a * 4096 + 64, a % 2 ? AccessType::kWrite : AccessType::kRead,
                 static_cast<std::uint8_t>(a));
  }
  return trace;
}

Format hytr() {
  std::stringstream buf;
  write_binary(small_trace(), buf);
  // Record counts come first: a reader that trusts one is the likelier bug.
  return {"HYTR", buf.str(), [](std::istream& in) { read_binary(in); },
          {{16, 8, "record count"}, {8, 4, "name_len"}}};
}

/// Decodes `bytes` through a seekable and a non-seekable stream. Returns ""
/// when each either decodes or throws std::runtime_error, else what happened.
std::string misbehaviour(const Format& format, const std::string& bytes) {
  for (const bool seekable : {true, false}) {
    std::stringstream buffer(bytes);
    PipeStream pipe(bytes);
    std::istream& in = seekable ? static_cast<std::istream&>(buffer) : pipe;
    const std::string where = seekable ? "seekable stream" : "pipe";
    try {
      format.decode(in);
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      return where + " threw " + typeid(e).name() + ": " + e.what();
    } catch (...) {
      return where + " threw a non-std exception";
    }
  }
  return "";
}

Format text() {
  std::stringstream buf;
  write_text(small_trace(), buf);
  return {"text", buf.str(), [](std::istream& in) { read_text(in); }, {}};
}

TEST(TraceFuzz, ValidEncodingsDecode) {
  for (const Format& format : {hytr(), text()}) {
    std::stringstream in(format.bytes);
    EXPECT_NO_THROW(format.decode(in)) << format.name;
  }
}

TEST(TraceFuzz, ExtremeSizeFieldsThrowRuntimeError) {
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::uint64_t> values = {
      0,           1,           3000,
      0x7fffffffu, 0x80000000u, 0xfffffffeu,
      0xffffffffu, std::uint64_t{1} << 32, std::uint64_t{1} << 40,
      std::uint64_t{1} << 63, kMax - 1, kMax};
  const Format format = hytr();
  for (const SizeField& field : format.size_fields) {
    for (const std::uint64_t value : values) {
      if (field.width == 4 && value > 0xffffffffu) continue;
      std::string bytes = format.bytes;
      std::memcpy(bytes.data() + field.offset, &value, field.width);
      const std::string what = misbehaviour(format, bytes);
      if (!what.empty()) {
        FAIL() << format.name << ": " << field.label << " set to " << value
               << ": " << what;
      }
    }
  }
}

// A binary encoding cut short must throw; a text one cut at a line end may
// decode the lines before the cut.
TEST(TraceFuzz, TruncationAtEveryLengthThrowsRuntimeError) {
  for (const Format& format : {hytr(), text()}) {
    for (std::size_t length = 0; length < format.bytes.size(); ++length) {
      const std::string what =
          misbehaviour(format, format.bytes.substr(0, length));
      if (!what.empty()) {
        FAIL() << format.name << ": truncated to " << length
               << " bytes: " << what;
      }
    }
  }
}

// 2000 cases per format, each one to four bit flips or byte overwrites
// drawn from a splitmix64-derived seed.
TEST(TraceFuzz, RandomByteMutationsDecodeOrThrowRuntimeError) {
  constexpr std::uint64_t kCases = 2000;
  for (const Format& format : {hytr(), text()}) {
    std::uint64_t state = 0x5eed;
    for (std::uint64_t i = 0; i < kCases; ++i) {
      const std::uint64_t seed = splitmix64(state);
      Rng rng(seed);
      std::string bytes = format.bytes;
      std::string mutation;
      const std::uint64_t edits = rng.next_in(1, 4);
      for (std::uint64_t e = 0; e < edits; ++e) {
        const auto at = static_cast<std::size_t>(rng.next_below(bytes.size()));
        if (rng.next_bool(0.5)) {
          const auto bit = static_cast<unsigned>(rng.next_below(8));
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
          mutation += "flip bit " + std::to_string(bit) + " of byte " +
                      std::to_string(at) + "; ";
        } else {
          const auto value = static_cast<unsigned>(rng.next_below(256));
          bytes[at] = static_cast<char>(value);
          mutation += "set byte " + std::to_string(at) + " to " +
                      std::to_string(value) + "; ";
        }
      }
      const std::string what = misbehaviour(format, bytes);
      if (!what.empty()) {
        FAIL() << format.name << " seed " << seed << " (" << mutation
               << "): " << what;
      }
    }
  }
}

}  // namespace
}  // namespace hymem::trace
