#include "sample/tap.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hymem::sample {

SamplingTap::SamplingTap(const SampleConfig& config, const os::Vmm& vmm,
                         util::SpscRing<PageId>& hot_ring,
                         util::SpscRing<PageId>& cold_ring)
    : config_(config),
      vmm_(vmm),
      hot_ring_(hot_ring),
      cold_ring_(cold_ring),
      board_(config.hot_threshold, config.cold_threshold),
      countdown_(config.sample_period) {
  HYMEM_CHECK_MSG(config.sample_period > 0, "sample period must be positive");
  HYMEM_CHECK_MSG(config.cooling_period > 0, "cooling period must be positive");
}

void SamplingTap::sample(PageId page) {
  ++samples_;
  const bool crossed_hot = board_.record(page);
  const bool cooling_due = samples_ % config_.cooling_period == 0;

  if (crossed_hot && vmm_.tier_of(page) == Tier::kNvm) {
    if (hot_ring_.push(page)) {
      hot_hwm_ = std::max<std::uint64_t>(hot_hwm_, hot_ring_.size());
    } else {
      ++hot_drops_;
    }
  }

  if (cooling_due) {
    ++coolings_;
    board_.cool([this](PageId cooled) {
      if (vmm_.tier_of(cooled) != Tier::kDram) return;
      if (cold_ring_.push(cooled)) {
        cold_hwm_ = std::max<std::uint64_t>(cold_hwm_, cold_ring_.size());
      } else {
        ++cold_drops_;
      }
    });
  }
}

}  // namespace hymem::sample
