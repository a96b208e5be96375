#include "util/random.hpp"

#include <cmath>

namespace hymem {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) {
  return lo + next_below(hi - lo + 1);
}

Rng Rng::split() { return Rng(next()); }

GeometricSampler::GeometricSampler(double p)
    : never_(p <= 0.0),
      log_p_(never_ ? 0.0 : std::log(p >= 1.0 ? 0.999999 : p)) {}

std::uint64_t GeometricSampler::sample(Rng& rng) const {
  if (never_) return 0;
  const double u = 1.0 - rng.next_double();  // in (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / log_p_));
}

}  // namespace hymem
