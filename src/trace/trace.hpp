// In-memory access trace.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/access.hpp"

namespace hymem::trace {

/// A sequence of memory requests plus the metadata needed to interpret it.
///
/// Traces are the interchange format between the synthetic generator, the
/// cache-hierarchy filter, and the hybrid-memory simulator.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}
  Trace(std::string name, std::vector<MemAccess> accesses)
      : name_(std::move(name)), accesses_(std::move(accesses)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void reserve(std::size_t n) { accesses_.reserve(n); }
  void append(MemAccess a) { accesses_.push_back(a); }
  void append(Addr addr, AccessType type, std::uint8_t core = 0) {
    accesses_.push_back({addr, type, core});
  }

  bool empty() const { return accesses_.empty(); }
  std::size_t size() const { return accesses_.size(); }
  const MemAccess& operator[](std::size_t i) const { return accesses_[i]; }

  std::span<const MemAccess> accesses() const { return accesses_; }

  auto begin() const { return accesses_.begin(); }
  auto end() const { return accesses_.end(); }

  /// Number of read / write requests.
  std::uint64_t read_count() const;
  std::uint64_t write_count() const;

  /// Records that the accesses touch `pages` distinct pages of `page_size`
  /// bytes, for a producer that counted them while appending
  /// (synth::generate does). trace::distinct_pages answers from the record
  /// instead of counting.
  void record_footprint(std::uint64_t page_size, std::uint64_t pages);
  /// The recorded count at `page_size`, or nothing when no record was made
  /// at that page size or an append has grown the trace since (append is
  /// the only way to change the accesses).
  std::optional<std::uint64_t> recorded_footprint(
      std::uint64_t page_size) const;

 private:
  /// page_size == 0: no record.
  struct FootprintRecord {
    std::uint64_t page_size = 0;
    std::uint64_t pages = 0;
    std::size_t size = 0;  ///< size() when recorded.
  };

  std::string name_;
  std::vector<MemAccess> accesses_;
  FootprintRecord footprint_;
};

}  // namespace hymem::trace
