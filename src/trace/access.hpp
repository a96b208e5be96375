// The unit record of every hymem pipeline: one main-memory request.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace hymem::trace {

/// One memory request as seen below the last-level cache.
///
/// `addr` is a byte address; the simulation layers derive the page from it.
/// `core` identifies the issuing core (used by the cache-hierarchy substrate
/// and ignored by the memory policies, which are core-agnostic like the
/// paper's OS-level scheme).
///
/// Packed, so a record is its 10 bytes and a trace in memory is the record
/// payload of the binary trace format (trace/record_codec.hpp asserts the
/// layout). Members are read and written by value; the compiler emits the
/// unaligned loads, and taking a member's address is an error under -Werror
/// (-Waddress-of-packed-member).
struct [[gnu::packed]] MemAccess {
  Addr addr = 0;
  AccessType type = AccessType::kRead;
  std::uint8_t core = 0;

  friend bool operator==(const MemAccess&, const MemAccess&) = default;
};

/// Page containing an address for a power-of-two page size.
constexpr PageId page_of(Addr addr, std::uint64_t page_size) {
  return addr / page_size;
}

}  // namespace hymem::trace
