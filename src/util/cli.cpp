#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <system_error>

namespace hymem {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) > 0; }

void CliArgs::reject_unknown(const std::vector<std::string>& known) const {
  std::string unknown;
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown += " --" + name;
    }
  }
  if (!unknown.empty()) throw std::invalid_argument("unknown flag" + unknown);
}

std::string CliArgs::get(const std::string& name, const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

void CliArgs::reject_value(const std::string& name,
                           const std::string& expected) const {
  throw std::invalid_argument("--" + name + " takes " + expected + ", got '" +
                              flags_.at(name) + "'");
}

namespace {

/// Parses the whole of `value` into `out`; false on any leftover text,
/// a sign an unsigned type does not take, or a value out of range.
template <typename T>
bool parse_whole(const std::string& value, T& out) {
  const char* const end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, out);
  return error == std::errc() && stop == end;
}

}  // namespace

std::uint64_t CliArgs::get_uint(const std::string& name, std::uint64_t def,
                                std::uint64_t min) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  std::uint64_t parsed = 0;
  if (!parse_whole(it->second, parsed) || parsed < min) {
    reject_value(name, min == 0   ? "an unsigned integer"
                       : min == 1 ? "a positive integer"
                                  : "an integer of at least " +
                                        std::to_string(min));
  }
  return parsed;
}

double CliArgs::get_double(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  double parsed = 0.0;
  if (!parse_whole(it->second, parsed)) reject_value(name, "a number");
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  reject_value(name, "true or false");
}

}  // namespace hymem
