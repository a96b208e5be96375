#include "synth/generator.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"
#include "util/random.hpp"
#include "util/zipf.hpp"

namespace hymem::synth {

namespace {

/// Deterministic hash used for seed mixing.
std::uint64_t mix_hash(std::uint64_t v) {
  std::uint64_t s = v * 0x9e3779b97f4a7c15ULL + 0x7f4a7c159e3779b9ULL;
  return splitmix64(s);
}

}  // namespace

trace::Trace generate(const WorkloadProfile& profile,
                      const GeneratorOptions& options) {
  HYMEM_CHECK(options.page_size > 0 && options.line_size > 0);
  HYMEM_CHECK(options.line_size <= options.page_size);
  const std::uint64_t total = profile.total_accesses();
  const std::uint64_t n_pages = profile.footprint_pages(options.page_size);
  const std::uint64_t lines_per_page = options.page_size / options.line_size;

  Rng rng(options.seed ^ mix_hash(n_pages));
  const std::uint64_t hot_pages =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
          profile.hot_fraction * static_cast<double>(n_pages)));
  // The active region: everything but explicit cold accesses stays inside.
  const std::uint64_t region_pages = std::max(
      hot_pages, static_cast<std::uint64_t>(profile.resident_fraction *
                                            static_cast<double>(n_pages)));
  ZipfSampler zipf(hot_pages, profile.zipf_alpha);
  // Write-hot subset: the first write_page_fraction of hot ranks.
  const std::uint64_t write_hot_pages = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(profile.write_page_fraction *
                                    static_cast<double>(hot_pages)));
  ZipfSampler write_zipf(write_hot_pages, profile.zipf_alpha);

  // Burst continuation probability so the mean burst length matches.
  const GeometricSampler burst_length(
      profile.burst_mean > 0.0 ? profile.burst_mean / (1.0 + profile.burst_mean)
                               : 0.0);

  // Access modes by cut points on one uniform draw: scan, hot, cold, warm.
  const double scan_hi = profile.scan_fraction;
  const double hot_hi = scan_hi + profile.hot_locality;
  const double cold_hi = hot_hi + profile.cold_fraction;

  // Page = (offset + churn_offset) mod n_pages, with churn_offset < n_pages.
  // Every offset is below region_pages or write_hot_pages, so when both fit
  // in the footprint (fractions of at most 1, as in every Table III
  // profile) the sum is below 2 * n_pages and one subtract reduces it.
  const bool offsets_fit = std::max(region_pages, write_hot_pages) <= n_pages;
  std::uint64_t churn_offset = 0;
  const auto rotate = [&](std::uint64_t offset) {
    const std::uint64_t sum = offset + churn_offset;
    if (!offsets_fit) return sum % n_pages;
    return sum >= n_pages ? sum - n_pages : sum;
  };

  trace::Trace out(profile.name);
  out.reserve(total);

  std::uint64_t remaining_reads = profile.reads;
  std::uint64_t remaining_writes = profile.writes;
  std::uint64_t scan_cursor = rng.next_below(region_pages);

  // Hot-set rotation (canneal/fluidanimate churn behaviour) at every
  // positive multiple of churn_period; never when it is 0.
  const std::uint64_t churn_step = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(profile.churn_shift *
                                    static_cast<double>(hot_pages)));
  std::uint64_t next_churn =
      profile.churn_period > 0 ? profile.churn_period : total;

  // Pages touched so far, one byte each. Their count is the footprint the
  // trace records. With ensure_full_footprint, every cover_stride-th access
  // (and every access once no more remain than untouched pages) touches the
  // lowest untouched page instead.
  std::vector<std::uint8_t> touched(n_pages, 0);
  std::uint64_t untouched = n_pages;
  const bool cover = options.ensure_full_footprint;
  std::uint64_t cover_cursor = 0;
  const std::uint64_t cover_stride =
      cover && total > n_pages ? std::max<std::uint64_t>(1, total / n_pages / 2)
                               : 1;
  std::uint64_t cover_phase = 0;  // i % cover_stride

  // Burst state: repeat last_page for burst_left further accesses.
  PageId last_page = 0;
  std::uint64_t burst_left = 0;

  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t remaining = total - i;
    if (i == next_churn) {
      next_churn += profile.churn_period;
      churn_offset = (churn_offset + churn_step) % n_pages;
      burst_left = 0;
    }

    // --- Pick the page. ---
    PageId page;
    bool forced_coverage = false;
    bool in_burst = false;
    if (cover && untouched > 0 &&
        (remaining <= untouched || cover_phase == 0)) {
      // Forced coverage of a not-yet-touched page.
      while (touched[cover_cursor]) ++cover_cursor;
      page = cover_cursor;
      forced_coverage = true;
    } else if (burst_left > 0) {
      --burst_left;
      page = last_page;
      in_burst = true;
    } else {
      const double mode = rng.next_double();
      if (mode < scan_hi) {
        // Sequential scan confined to the active region.
        if (++scan_cursor == region_pages) scan_cursor = 0;
        page = rotate(scan_cursor);
      } else if (mode < hot_hi) {
        page = rotate(zipf.sample(rng));
        if (rng.next_bool(profile.burst_prob)) {
          burst_left = burst_length.sample(rng);
        }
      } else if (mode < cold_hi) {
        // Cold access anywhere in the footprint: the steady-state fault
        // source.
        page = rng.next_below(n_pages);
      } else {
        // Warm access inside the active region.
        page = rotate(rng.next_below(region_pages));
        if (rng.next_bool(profile.warm_burst_prob)) {
          burst_left = burst_length.sample(rng);
        }
      }
    }
    if (++cover_phase == cover_stride) cover_phase = 0;

    // --- Pick the type: feedback from the remaining budget keeps the totals
    // exact (Table III read/write counts are matched to the access). ---
    AccessType type;
    if (remaining_writes == 0) {
      type = AccessType::kRead;
    } else if (remaining_reads == 0) {
      type = AccessType::kWrite;
    } else {
      const double base = static_cast<double>(remaining_writes) /
                          static_cast<double>(remaining);
      type = rng.next_bool(base) ? AccessType::kWrite : AccessType::kRead;
    }
    if (type == AccessType::kWrite) {
      --remaining_writes;
      // Write locality: most writes are redirected into the write-hot subset
      // of the hot set (which a sane policy keeps in DRAM). Coverage touches
      // and burst repetitions keep their page.
      if (!forced_coverage && !in_burst &&
          rng.next_bool(profile.write_locality)) {
        page = rotate(write_zipf.sample(rng));
      }
    } else {
      --remaining_reads;
    }
    last_page = page;
    if (!touched[page]) {
      touched[page] = 1;
      --untouched;
    }

    const Addr addr = page * options.page_size +
                      rng.next_below(lines_per_page) * options.line_size;
    out.append(addr, type);
  }
  HYMEM_CHECK(remaining_reads == 0 && remaining_writes == 0);
  out.record_footprint(options.page_size, n_pages - untouched);
  return out;
}

}  // namespace hymem::synth
