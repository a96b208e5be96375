#include "trace/trace.hpp"

#include "util/check.hpp"

namespace hymem::trace {

std::uint64_t Trace::read_count() const {
  std::uint64_t n = 0;
  for (const auto& a : accesses_) n += (a.type == AccessType::kRead);
  return n;
}

std::uint64_t Trace::write_count() const {
  return size() - read_count();
}

void Trace::record_footprint(std::uint64_t page_size, std::uint64_t pages) {
  HYMEM_CHECK_MSG(page_size > 0, "page size must be positive");
  footprint_ = {page_size, pages, size()};
}

std::optional<std::uint64_t> Trace::recorded_footprint(
    std::uint64_t page_size) const {
  if (footprint_.page_size == 0 || footprint_.page_size != page_size ||
      footprint_.size != size()) {
    return std::nullopt;
  }
  return footprint_.pages;
}

}  // namespace hymem::trace
