// Zipf-distributed sampling over ranks {0, ..., n-1}.
//
// PARSEC memory footprints are strongly skewed; the synthetic generator uses
// a Zipf hot-set to reproduce the per-page popularity skew that decides which
// pages are worth migrating. Sampling is O(1) amortized via Walker's alias
// method built once per (n, alpha).
#pragma once

#include <cstdint>
#include <vector>

#include "util/random.hpp"

namespace hymem {

/// Samples rank r in [0, n) with probability proportional to 1 / (r+1)^alpha.
/// alpha = 0 degenerates to uniform; larger alpha concentrates mass on the
/// first ranks.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double alpha);

  std::uint64_t n() const { return n_; }
  double alpha() const { return alpha_; }

  /// Draws one rank: a uniform column, kept with its probability, else its
  /// alias.
  std::uint64_t sample(Rng& rng) const {
    const std::uint64_t col = rng.next_below(n_);
    const Column& c = table_[col];
    return rng.next_double() < c.prob ? col : c.alias;
  }

  /// Probability mass of a given rank (for tests / analytics).
  double pmf(std::uint64_t rank) const;

 private:
  /// One alias-table column; a draw reads both fields.
  struct Column {
    double prob = 0.0;
    std::uint32_t alias = 0;
  };

  std::uint64_t n_;
  double alpha_;
  double norm_ = 0.0;
  std::vector<Column> table_;
};

}  // namespace hymem
