// Tiny command-line flag parser for the bench harnesses and examples.
// Supports --flag=value, --flag value, and boolean --flag.
//
// The checks are strict, so a typo or a malformed value fails loudly
// instead of silently running some other configuration. A flag outside the
// tool's known set, and a typed flag whose whole value does not parse (a
// sign, trailing text, an overflow, a value below the minimum), throw
// std::invalid_argument naming the flag:
//   "unknown flag --job"
//   "--scale takes a positive integer, got 'abc'"
// Every tool prints that message as one stderr line and exits with code 2.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hymem {

/// Parses argv into named flags and positional arguments.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  const std::string& program() const { return program_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const;

  /// Throws std::invalid_argument ("unknown flag --a --b") when the command
  /// line carries a flag outside `known`.
  void reject_unknown(const std::vector<std::string>& known) const;

  /// Returns the flag's value, or `def` when absent.
  std::string get(const std::string& name, const std::string& def = "") const;
  /// A plain decimal integer of at least `min`, or `def` when absent.
  std::uint64_t get_uint(const std::string& name, std::uint64_t def,
                         std::uint64_t min = 0) const;
  /// A decimal number, or `def` when absent.
  double get_double(const std::string& name, double def) const;
  /// true/false, 1/0, yes/no or on/off (a bare flag is true), or `def` when
  /// absent.
  bool get_bool(const std::string& name, bool def = false) const;

 private:
  /// Throws the message naming flag `name`, what it takes and its value.
  [[noreturn]] void reject_value(const std::string& name,
                                 const std::string& expected) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace hymem
