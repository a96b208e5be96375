#include "model/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/check.hpp"
#include "util/fraction.hpp"

namespace hymem::model {

namespace {

// CDF evaluations at fractional capacities. The profile's CDF is defined at
// integer distances; effective capacities (Cd / psi) are fractional, so
// interpolate linearly between adjacent integer points — this also keeps the
// fixed point smooth instead of stepping.
double interp(double f0, double f1, double x, double lo) {
  return f0 + (x - lo) * (f1 - f0);
}

double frac_reads_below(const trace::ReuseProfile& p, double x) {
  if (x <= 0.0 || p.accesses == 0) return 0.0;
  const double lo = std::floor(x);
  const auto i = static_cast<std::uint64_t>(lo);
  const double n = static_cast<double>(p.accesses);
  const double f0 = static_cast<double>(p.reads_below(i)) / n;
  if (x == lo) return f0;
  const double f1 = static_cast<double>(p.reads_below(i + 1)) / n;
  return interp(f0, f1, x, lo);
}

double frac_writes_below(const trace::ReuseProfile& p, double x) {
  if (x <= 0.0 || p.accesses == 0) return 0.0;
  const double lo = std::floor(x);
  const auto i = static_cast<std::uint64_t>(lo);
  const double n = static_cast<double>(p.accesses);
  const double f0 = static_cast<double>(p.writes_below(i)) / n;
  if (x == lo) return f0;
  const double f1 = static_cast<double>(p.writes_below(i + 1)) / n;
  return interp(f0, f1, x, lo);
}

double frac_below(const trace::ReuseProfile& p, double x) {
  return frac_reads_below(p, x) + frac_writes_below(p, x);
}

// Per-hit promotion probability of the windowed-counter Markov chain. A page
// (re-)enters a window at counter 1 and must survive in-window across T
// further same-type hits (survival probability q each) to exceed threshold
// T; a drop-out resets the streak. Expected hits per promotion is
// 1 + (1 - q^T) / ((1 - q) q^T); the rate is its reciprocal.
// Limits: T = 0 promotes on the first hit; q -> 1 gives 1 / (T + 1);
// a zero-width window (target 0) never tracks, so never promotes.
double promotion_rate(double q, std::uint64_t threshold,
                      std::size_t window_target) {
  if (window_target == 0) return 0.0;
  if (threshold == 0) return 1.0;
  if (q <= 0.0) return 0.0;
  const double t = static_cast<double>(threshold);
  if (q >= 1.0) return 1.0 / (t + 1.0);
  const double q_t = std::pow(q, t);
  const double expected_hits = 1.0 + (1.0 - q_t) / ((1.0 - q) * q_t);
  return 1.0 / expected_hits;
}

AnalyticEstimate finalize(AnalyticEstimate e, const AnalyticConfig& cfg,
                          double accesses) {
  e.hit_ratio = e.probs.hit_dram + e.probs.hit_nvm;
  e.amat = amat(e.probs, cfg.params);
  e.power = appr(e.probs, cfg.params, cfg.duration_s, accesses);
  e.nvm_writes_per_access =
      nvm_writes_per_access(e.probs, cfg.params.page_factor);
  e.lifetime_s = lifetime_seconds(
      e.nvm_writes_per_access * accesses, cfg.params.nvm.endurance_cycles,
      cfg.nvm_frames, cfg.params.page_factor, cfg.duration_s);
  return e;
}

// Degenerate single-module configs (the dram-only / nvm-only baselines):
// a plain LRU of the full capacity, every fault filling the one module.
AnalyticEstimate estimate_single_tier(const trace::ReuseProfile& profile,
                                      const AnalyticConfig& cfg) {
  const bool dram = cfg.nvm_frames == 0;
  const std::uint64_t capacity = dram ? cfg.dram_frames : cfg.nvm_frames;
  const double n = static_cast<double>(profile.accesses);
  const double hit_r = static_cast<double>(profile.reads_below(capacity)) / n;
  const double hit_w = static_cast<double>(profile.writes_below(capacity)) / n;
  const double hit = hit_r + hit_w;

  AnalyticEstimate e;
  e.probs.miss = 1.0 - hit;
  if (dram) {
    e.probs.hit_dram = hit;
    e.probs.read_dram = hit > 0.0 ? hit_r / hit : 0.0;
    e.probs.write_dram = hit > 0.0 ? hit_w / hit : 0.0;
    e.probs.disk_to_dram = e.probs.miss > 0.0 ? 1.0 : 0.0;
    e.effective_dram_frames = static_cast<double>(capacity);
  } else {
    e.probs.hit_nvm = hit;
    e.probs.read_nvm = hit > 0.0 ? hit_r / hit : 0.0;
    e.probs.write_nvm = hit > 0.0 ? hit_w / hit : 0.0;
    e.probs.disk_to_nvm = e.probs.miss > 0.0 ? 1.0 : 0.0;
  }
  return finalize(e, cfg, n);
}

}  // namespace

AnalyticEstimate estimate(const trace::ReuseProfile& profile,
                          const AnalyticConfig& config,
                          const AnalyticBias& bias) {
  HYMEM_CHECK_MSG(config.dram_frames + config.nvm_frames > 0,
                  "analytic estimate needs at least one frame");
  if (profile.accesses == 0) return AnalyticEstimate{};  // graceful, all-zero
  if (config.dram_frames == 0 || config.nvm_frames == 0) {
    return estimate_single_tier(profile, config);
  }

  const double n = static_cast<double>(profile.accesses);
  const auto cd = static_cast<double>(config.dram_frames);
  const std::uint64_t total = config.dram_frames + config.nvm_frames;
  const double c = static_cast<double>(total);

  // Combined residency: global-LRU miss ratio at Cd + Cn. Cold accesses have
  // infinite distance and are misses at any capacity.
  const double hit_r_total =
      static_cast<double>(profile.reads_below(total)) / n;
  const double hit_w_total =
      static_cast<double>(profile.writes_below(total)) / n;
  const double hit = hit_r_total + hit_w_total;
  const double miss = 1.0 - hit;
  // Steady state: after warmup the DRAM module is full whenever the
  // footprint covers it (the Section V.A sizing makes this the normal case).
  const bool dram_full = profile.distinct_pages >= config.dram_frames;

  // Window geometry — identical snapping to core::CountedLruQueue.
  const core::MigrationConfig& mig = config.migration;
  const std::size_t w_read = util::snap_ceil_fraction(
      mig.read_perc, static_cast<std::size_t>(config.nvm_frames));
  const std::size_t w_write = util::snap_ceil_fraction(
      mig.write_perc, static_cast<std::size_t>(config.nvm_frames));
  const auto biased = [&](std::uint64_t t) {
    const auto shifted = static_cast<std::int64_t>(t) + bias.threshold_bias;
    return shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
  };
  const std::uint64_t t_read = biased(mig.read_threshold);
  const std::uint64_t t_write = biased(mig.write_threshold);
  const double promo_cap = mig.max_promotions_per_kacc > 0
                               ? static_cast<double>(
                                     mig.max_promotions_per_kacc) / 1000.0
                               : std::numeric_limits<double>::infinity();

  // Fixed point over (PHitDRAM, PMigD); everything else is derived.
  //
  // DRAM hits are modeled as *bursts* following each DRAM entry (a fault
  // fill or a promotion): once a page leaves DRAM it serves even short-gap
  // re-accesses from NVM until promoted again, so DRAM's hit share is
  // entry-rate x expected burst length, not the raw short-gap mass. A burst
  // lasts while the page's gaps stay below the effective capacity
  // (geometric under the iid-gap approximation; promotion *selects* pages
  // whose gaps fit the window reach, which lengthens their bursts — the
  // conditional short-gap probability S_sel below).
  //
  // The burst map hd -> hd_new is monotone *decreasing* in hd (more DRAM
  // hits -> faster DRAM-front turnover -> smaller effective capacity ->
  // shorter bursts), so damped iteration two-cycles around the crossing;
  // bisection finds the unique root directly. migd perturbs the map only
  // weakly, so a damped outer loop over it settles in a few rounds.
  struct StepResult {
    double hd_new = 0.0;
    double migd_new = 0.0;
    double cd_eff = 0.0;
    double r_read = 0.0;
    double r_write = 0.0;
  };
  constexpr double kAlmostOne = 1.0 - 1e-6;
  const auto step = [&](double hd_cur, double migd_cur) {
    StepResult out;
    const double psi = std::clamp(miss + hd_cur + migd_cur, 1e-12, 1.0);
    out.cd_eff = std::min(cd / psi * bias.dram_capacity_scale, c);
    const double short_mass =
        std::min(frac_below(profile, out.cd_eff), hit);
    const double hn = std::max(hit - hd_cur, 0.0);
    const double mign = dram_full ? miss + migd_cur : 0.0;
    const double nu = std::clamp(mign + hn, 1e-12, 1.0);

    // Per-type NVM-hit mass: NVM serves everything DRAM does not, so split
    // the DRAM share by the short-gap read/write mix.
    const double short_r = frac_reads_below(profile, out.cd_eff);
    const double read_share =
        short_mass > 0.0 ? std::clamp(short_r / short_mass, 0.0, 1.0) : 0.0;
    const double hd_r = hd_cur * read_share;
    const double hd_w = hd_cur - hd_r;
    const double hn_r = std::clamp(hit_r_total - hd_r, 0.0, hit_r_total);
    const double hn_w = std::clamp(hit_w_total - hd_w, 0.0, hit_w_total);

    // Window survival: a page at the NVM front stays inside a window of W
    // slots while fewer than W front entries intervene; with nu entries per
    // access the reach is W / nu reuse-distance units. NVM-resident pages
    // see the full hit-gap distribution (sticky residency serves short-gap
    // re-accesses too), so condition on gap < C, not on the NVM band.
    const double reach_read =
        std::min(static_cast<double>(w_read) / nu, c);
    const double reach_write =
        std::min(static_cast<double>(w_write) / nu, c);
    const double q_read =
        hit_r_total > 0.0
            ? std::clamp(frac_reads_below(profile, reach_read) / hit_r_total,
                         0.0, 1.0)
            : 0.0;
    const double q_write =
        hit_w_total > 0.0
            ? std::clamp(frac_writes_below(profile, reach_write) /
                             hit_w_total,
                         0.0, 1.0)
            : 0.0;
    out.r_read = promotion_rate(q_read, t_read, w_read);
    out.r_write = promotion_rate(q_write, t_write, w_write);
    double migd_r = hn_r * out.r_read;
    double migd_w = hn_w * out.r_write;
    const double migd_raw = migd_r + migd_w;
    out.migd_new = std::min(migd_raw, promo_cap);
    if (migd_raw > 0.0 && out.migd_new < migd_raw) {
      const double scale = out.migd_new / migd_raw;
      migd_r *= scale;
      migd_w *= scale;
    }

    // Burst lengths. Fault fills land an average page: short-gap
    // probability = the unconditional short mass. Promotions land a page
    // that just survived the window T times: short-gap probability
    // conditioned on gaps below the window reach.
    const double s_fault = std::min(short_mass, kAlmostOne);
    const double burst_fault = s_fault / (1.0 - s_fault);
    const auto burst_promoted = [&](double reach) {
      const double below_reach = frac_below(profile, reach);
      if (below_reach <= 0.0) return 0.0;
      const double s_sel = std::min(
          frac_below(profile, std::min(out.cd_eff, reach)) / below_reach,
          kAlmostOne);
      return s_sel / (1.0 - s_sel);
    };
    out.hd_new = std::min(
        miss * burst_fault + migd_r * burst_promoted(reach_read) +
            migd_w * burst_promoted(reach_write),
        short_mass);
    return out;
  };

  double hd = 0.0;
  double migd = 0.0;
  int iterations = 0;
  constexpr int kOuterIterations = 40;
  constexpr int kBisectIterations = 50;
  constexpr double kTolerance = 1e-10;
  StepResult last = step(0.0, 0.0);
  for (int outer = 0; outer < kOuterIterations; ++outer) {
    // g(hd) = hd_new(hd) - hd is strictly decreasing with g(0) >= 0 and
    // g(hit) <= F(Cd) - hit <= 0, so the root is bracketed by [0, hit].
    double lo = 0.0;
    double hi = hit;
    for (int i = 0; i < kBisectIterations; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (step(mid, migd).hd_new > mid) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    hd = 0.5 * (lo + hi);
    last = step(hd, migd);
    ++iterations;
    const double dm = last.migd_new - migd;
    migd += 0.5 * dm;
    if (std::abs(dm) < kTolerance) break;
  }
  const double cd_eff = last.cd_eff;
  const double r_read = last.r_read;
  const double r_write = last.r_write;

  AnalyticEstimate e;
  e.probs.hit_dram = hd;
  e.probs.hit_nvm = std::max(hit - hd, 0.0);
  e.probs.miss = miss;
  // Conditional read/write splits: DRAM hits follow the short-gap mix, NVM
  // hits take the remainder of the per-type hit mass.
  const double short_mass = std::min(frac_below(profile, cd_eff), hit);
  const double short_r = frac_reads_below(profile, cd_eff);
  const double read_share =
      short_mass > 0.0 ? std::clamp(short_r / short_mass, 0.0, 1.0) : 0.0;
  e.probs.read_dram = hd > 0.0 ? read_share : 0.0;
  e.probs.write_dram = hd > 0.0 ? 1.0 - read_share : 0.0;
  const double hn_r =
      std::clamp(hit_r_total - hd * read_share, 0.0, hit_r_total);
  const double hn_w = std::clamp(hit_w_total - hd * (1.0 - read_share), 0.0,
                                 hit_w_total);
  const double hn_sum = hn_r + hn_w;
  e.probs.read_nvm = hn_sum > 0.0 ? hn_r / hn_sum : 0.0;
  e.probs.write_nvm = hn_sum > 0.0 ? hn_w / hn_sum : 0.0;
  e.probs.mig_to_dram = migd;
  e.probs.mig_to_nvm = dram_full ? miss + migd : 0.0;
  e.probs.disk_to_dram = miss > 0.0 ? 1.0 : 0.0;  // all faults fill DRAM
  e.effective_dram_frames = cd_eff;
  e.promotion_rate_read = r_read;
  e.promotion_rate_write = r_write;
  e.iterations = iterations;
  return finalize(e, config, n);
}

}  // namespace hymem::model
