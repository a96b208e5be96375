#include "trace/block_source.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "util/check.hpp"
#include "util/flat_page_map.hpp"

namespace hymem::trace {

TraceBlockSource::TraceBlockSource(const Trace& trace, std::uint64_t page_size,
                                   std::size_t block_accesses)
    : trace_(trace),
      page_size_(page_size),
      shift_(std::has_single_bit(page_size) ? std::countr_zero(page_size)
                                            : -1),
      block_accesses_(block_accesses == 0 ? trace.size() : block_accesses) {
  HYMEM_CHECK_MSG(page_size > 0, "page size must be positive");
  const std::size_t capacity = std::min(block_accesses_, trace.size());
  if (capacity > 0) {
    // Guarded: GCC 12's -Wnull-dereference misfires on resize(0) at -O3.
    pages_.resize(capacity);
    types_.resize(capacity);
    hashes_.resize(capacity);
  }
}

const DecodedBlock* TraceBlockSource::next() {
  const std::span<const MemAccess> accesses = trace_.accesses();
  if (cursor_ >= accesses.size()) return nullptr;
  const std::size_t n = std::min(block_accesses_, accesses.size() - cursor_);
  const MemAccess* in = accesses.data() + cursor_;
  for (std::size_t i = 0; i < n; ++i) {
    const PageId page = shift_ >= 0 ? in[i].addr >> shift_
                                    : page_of(in[i].addr, page_size_);
    pages_[i] = page;
    types_[i] = in[i].type;
    hashes_[i] = util::hash_page_id(page);
  }
  cursor_ += n;
  view_ = {pages_.data(), types_.data(), hashes_.data(), n};
  return &view_;
}

}  // namespace hymem::trace
