#include "util/zipf.hpp"

#include <cmath>
#include <deque>

#include "util/check.hpp"

namespace hymem {

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  HYMEM_CHECK_MSG(n > 0, "Zipf support must be non-empty");
  HYMEM_CHECK_MSG(alpha >= 0.0, "Zipf exponent must be non-negative");
  std::vector<double> w(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    w[r] = std::pow(static_cast<double>(r + 1), -alpha);
    norm_ += w[r];
  }
  // Walker alias construction.
  table_.assign(n, Column{});
  std::deque<std::uint32_t> small, large;
  std::vector<double> scaled(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    scaled[r] = w[r] / norm_ * static_cast<double>(n);
    (scaled[r] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(r));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.front();
    small.pop_front();
    const std::uint32_t l = large.front();
    table_[s] = {scaled[s], l};
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_front();
      small.push_back(l);
    }
  }
  for (std::uint32_t r : large) table_[r].prob = 1.0;
  for (std::uint32_t r : small) table_[r].prob = 1.0;
}

double ZipfSampler::pmf(std::uint64_t rank) const {
  HYMEM_CHECK(rank < n_);
  return std::pow(static_cast<double>(rank + 1), -alpha_) / norm_;
}

}  // namespace hymem
