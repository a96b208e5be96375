// Shared fixtures of the trace I/O tests.
#pragma once

#include <cstdint>
#include <istream>
#include <streambuf>
#include <string>
#include <string_view>

#include "trace/trace.hpp"
#include "util/random.hpp"

namespace hymem::trace {

/// An input stream over fixed bytes that cannot seek, like a pipe: the
/// readers' non-seekable paths (no size precheck, growth as records arrive).
class PipeStream : public std::istream {
 public:
  explicit PipeStream(std::string bytes)
      : std::istream(nullptr), buf_(std::move(bytes)) {
    rdbuf(&buf_);
  }

 private:
  // std::streambuf's seekoff/seekpos fail, so tellg() reports -1.
  struct Buffer : std::streambuf {
    explicit Buffer(std::string b) : bytes(std::move(b)) {
      setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
    }
    std::string bytes;
  };
  Buffer buf_;
};

/// `n` records with random addresses, types and cores.
inline Trace random_trace(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Trace trace("random");
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Addr addr = rng.next();
    const AccessType type =
        rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead;
    trace.append(addr, type, static_cast<std::uint8_t>(rng.next_below(256)));
  }
  return trace;
}

/// Lower-case hex of `bytes`, two digits a byte.
inline std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

}  // namespace hymem::trace
