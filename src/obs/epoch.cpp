#include "obs/epoch.hpp"

#include "model/perf_model.hpp"
#include "model/power_model.hpp"
#include "util/check.hpp"

namespace hymem::obs {

EpochSampler::EpochSampler(std::uint64_t epoch_length, const os::Vmm& vmm,
                           const core::TwoLruMigrationPolicy* policy,
                           double duration_s,
                           const SampledStatsSource* sampled)
    : vmm_(vmm),
      policy_(policy),
      sampled_(sampled),
      duration_s_(duration_s),
      params_(model::ModelParams::from_vmm(vmm)),
      epoch_length_(epoch_length) {
  HYMEM_CHECK_MSG(epoch_length > 0, "epoch length must be positive");
  timeline_.epoch_length = epoch_length;
  last_counts_.page_factor = vmm.page_factor();
}

void EpochSampler::record(const Nanoseconds* latencies, std::size_t n) {
  HYMEM_CHECK_MSG(n <= until_boundary(), "block crosses an epoch boundary");
  // Access by access, in serve order, so mean_visible_latency_ns keeps its
  // bytes whatever the block cut.
  for (std::size_t i = 0; i < n; ++i) epoch_latency_ns_ += latencies[i];
  accesses_ += n;
  in_epoch_ += n;
  if (in_epoch_ == epoch_length_) emit_epoch();
}

void EpochSampler::emit_epoch() {
  EpochRecord record;
  record.epoch = timeline_.epochs.size();
  record.end_access = accesses_;

  const model::EventCounts cumulative =
      model::EventCounts::from_vmm(vmm_, accesses_);
  record.delta = cumulative - last_counts_;

  record.dram_resident = vmm_.resident(Tier::kDram);
  record.nvm_resident = vmm_.resident(Tier::kNvm);

  if (policy_ != nullptr) {
    const core::CountedLruQueue& nvm = policy_->nvm_queue();
    record.read_window = nvm.read_window_stats();
    record.write_window = nvm.write_window_stats();
    record.read_threshold = policy_->read_threshold();
    record.write_threshold = policy_->write_threshold();
    record.promotions = policy_->promotions() - last_promotions_;
    record.demotions = policy_->demotions() - last_demotions_;
    record.throttled_promotions =
        policy_->throttled_promotions() - last_throttled_;
    last_promotions_ = policy_->promotions();
    last_demotions_ = policy_->demotions();
    last_throttled_ = policy_->throttled_promotions();
  }

  if (sampled_ != nullptr) {
    const SampledStats now = sampled_->sampled_stats();
    record.samples = now.samples - last_sampled_.samples;
    record.sample_drops = now.sample_drops - last_sampled_.sample_drops;
    record.coolings = now.coolings - last_sampled_.coolings;
    record.sampled_promotions = now.promotions - last_sampled_.promotions;
    record.sampled_demotions = now.demotions - last_sampled_.demotions;
    record.sampled_stale =
        now.stale_candidates - last_sampled_.stale_candidates;
    record.migration_backlog = now.backlog;
    record.hot_ring_hwm = now.hot_ring_hwm;
    record.cold_ring_hwm = now.cold_ring_hwm;
    last_sampled_ = now;
  }

  record.amat_total_ns = model::amat(record.delta, params_).total();
  record.mean_visible_latency_ns =
      in_epoch_ ? epoch_latency_ns_ / static_cast<double>(in_epoch_) : 0.0;
  // APPR needs the epoch's wall-time share, which is only known once the
  // run's total access count is: finish() back-fills appr_total_nj.

  timeline_.epochs.push_back(record);
  last_counts_ = cumulative;
  in_epoch_ = 0;
  epoch_latency_ns_ = 0.0;
}

void EpochSampler::finish() {
  if (in_epoch_ > 0) emit_epoch();  // the remainder epoch
  if (accesses_ == 0) return;
  // Eq. 2 per epoch: static power prorated by the epoch's access share of
  // the run's ROI wall time.
  for (EpochRecord& record : timeline_.epochs) {
    const double share = static_cast<double>(record.delta.accesses) /
                         static_cast<double>(accesses_);
    record.appr_total_nj =
        model::appr(record.delta, params_, duration_s_ * share).total();
  }
}

}  // namespace hymem::obs
