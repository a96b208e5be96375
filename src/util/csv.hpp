// Minimal CSV emission so bench harnesses can dump machine-readable series
// next to the human-readable tables.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hymem {

/// A double as a CSV cell: %.12g, the bytes `std::ostream <<
/// std::setprecision(12)` writes.
std::string fmt_double(double value);

/// A count as a CSV cell.
inline std::string u64(std::uint64_t value) { return std::to_string(value); }

/// Streams RFC-4180-ish CSV rows (quotes fields containing , " or newline).
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& fields);

  /// Escapes one field per RFC 4180.
  static std::string escape(const std::string& field);

 private:
  std::ostream& out_;
};

}  // namespace hymem
