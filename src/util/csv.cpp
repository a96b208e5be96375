#include "util/csv.hpp"

#include <iomanip>
#include <sstream>

namespace hymem {

std::string fmt_double(double value) {
  std::ostringstream os;
  os << std::setprecision(12) << value;
  return os.str();
}

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

}  // namespace hymem
