// Trace serialization.
//
// Binary format (little-endian):
//   magic "HYTR" | u32 version | u32 name_len | name bytes | u64 count |
//   count * { u64 addr | u8 type | u8 core }
//
// Text format: one record per line, `R <hex-addr> <core>` / `W <hex-addr>
// <core>`; lines starting with '#' are comments. The text form exists so
// externally captured traces (e.g. real COTSon/valgrind dumps) can be fed in.
// write_text starts with `# hymem trace: NAME`, which read_text takes the
// trace's name from, so a text round trip keeps it.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace hymem::trace {

/// Current binary format version.
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/// Writes/reads the binary format. Throws std::runtime_error on malformed
/// input (bad magic, truncated payload, unsupported version).
void write_binary(const Trace& trace, std::ostream& out);
Trace read_binary(std::istream& in);

/// Writes/reads the text format. The address is a whole field read as
/// strtoull base 0 reads it (0x hex, leading-0 octal, else decimal) and the
/// optional core a decimal 0-255. read_text names the trace after the
/// `# hymem trace:` first line when there is one, else `name`, and throws
/// std::runtime_error naming the line on anything else it cannot parse.
void write_text(const Trace& trace, std::ostream& out);
Trace read_text(std::istream& in, std::string name = "");

/// File helpers; format chosen by extension (".trc" binary, anything else
/// text).
void save(const Trace& trace, const std::string& path);
Trace load(const std::string& path);

}  // namespace hymem::trace
