#include "runner/sweep.hpp"

#include <algorithm>
#include <chrono>

#include "obs/timeline_io.hpp"
#include "runner/thread_pool.hpp"
#include "sim/results_io.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace hymem::runner {

std::uint64_t job_seed(std::uint64_t base_seed, std::size_t index) {
  // splitmix64 increments by the golden gamma then mixes, so seeding the
  // state at base_seed + index*gamma yields exactly stream output `index`
  // without walking the stream: O(1), order-free, collision-resistant.
  std::uint64_t state =
      base_seed + static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

std::vector<SweepJob> expand_grid(const SweepSpec& spec) {
  const std::vector<ConfigVariant> default_variants(1);
  const auto& variants =
      spec.variants.empty() ? default_variants : spec.variants;
  std::vector<SweepJob> jobs;
  jobs.reserve(spec.workloads.size() * spec.policies.size() * variants.size());
  for (const auto& workload : spec.workloads) {
    for (const auto& policy : spec.policies) {
      for (const auto& variant : variants) {
        SweepJob job;
        job.index = jobs.size();
        job.workload = workload;
        job.policy = policy;
        job.variant = variant.label;
        job.config = variant.config;
        job.config.policy = policy;
        job.seed = spec.seed_mode == SeedMode::kPerJob
                       ? job_seed(spec.base_seed, job.index)
                       : spec.base_seed;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

std::size_t SweepResults::failures() const {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(), [](const JobResult& j) {
        return !j.ok && !j.skipped;
      }));
}

std::size_t SweepResults::skipped() const {
  return static_cast<std::size_t>(std::count_if(
      jobs.begin(), jobs.end(),
      [](const JobResult& j) { return j.skipped; }));
}

std::vector<sim::RunResult> SweepResults::results() const {
  std::vector<sim::RunResult> out;
  out.reserve(jobs.size());
  for (const auto& job : jobs) {
    if (job.ok) out.push_back(job.result);
  }
  return out;
}

void SweepResults::write_csv(std::ostream& out) const {
  CsvWriter writer(out);
  // Job identification first, then the shared RunResult projection from
  // sim/results_io (minus its leading workload/policy, already present).
  const auto& metric_header = sim::csv_header();
  std::vector<std::string> header = {"workload", "policy", "variant",
                                     "seed",     "status", "error"};
  header.insert(header.end(), metric_header.begin() + 2, metric_header.end());
  writer.write_row(header);
  for (const auto& job : jobs) {
    std::vector<std::string> row = {
        job.job.workload.name,
        job.job.policy,
        job.job.variant,
        std::to_string(job.job.seed),
        job.ok ? "ok" : (job.skipped ? "skipped" : "failed"),
        job.ok || job.skipped ? std::string() : job.error};
    if (job.ok) {
      auto fields = sim::csv_fields(job.result);
      row.insert(row.end(), fields.begin() + 2, fields.end());
    } else {
      row.resize(header.size());
    }
    writer.write_row(row);
  }
}

std::size_t SweepResults::write_timeline_csv(std::ostream& out,
                                             bool header) const {
  if (header) {
    const auto& epoch_header = obs::timeline_csv_header();
    std::vector<std::string> columns = {"workload", "policy", "variant",
                                        "seed"};
    columns.insert(columns.end(), epoch_header.begin(), epoch_header.end());
    CsvWriter(out).write_row(columns);
  }
  std::size_t rows = 0;
  std::string row;
  for (const auto& job : jobs) {
    if (!job.ok || job.result.timeline.empty()) continue;
    const std::string identity =
        CsvWriter::escape(job.job.workload.name) + ',' +
        CsvWriter::escape(job.job.policy) + ',' +
        CsvWriter::escape(job.job.variant) + ',' +
        std::to_string(job.job.seed) + ',';
    for (const auto& record : job.result.timeline.epochs) {
      row.assign(identity);
      obs::append_timeline_csv_row(record, row);
      row += '\n';
      out.write(row.data(), static_cast<std::streamsize>(row.size()));
      ++rows;
    }
  }
  return rows;
}

using util::json_escape;

void SweepResults::write_json(std::ostream& out) const {
  out << "[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    if (i) out << ",";
    out << "\n{\n  \"workload\": \"" << json_escape(job.job.workload.name)
        << "\",\n  \"policy\": \"" << json_escape(job.job.policy)
        << "\",\n  \"variant\": \"" << json_escape(job.job.variant)
        << "\",\n  \"seed\": " << job.job.seed << ",\n  \"status\": \""
        << (job.ok ? "ok" : (job.skipped ? "skipped" : "failed")) << "\"";
    if (job.ok) {
      out << ",\n  \"result\": ";
      sim::write_json(job.result, out);
    } else if (!job.skipped) {
      out << ",\n  \"error\": \"" << json_escape(job.error) << "\"";
    }
    out << "\n}";
  }
  out << "\n]\n";
}

void SweepResults::write_failures(std::ostream& out) const {
  const auto failed = failures();
  if (failed == 0) return;
  out << failed << "/" << jobs.size() << " sweep jobs FAILED:\n";
  for (const auto& job : jobs) {
    if (job.ok || job.skipped) continue;
    out << "  [" << job.job.index << "] " << job.job.workload.name << " / "
        << job.job.policy;
    if (!job.job.variant.empty()) out << " / " << job.job.variant;
    out << ": " << job.error << "\n";
  }
}

void execute_jobs(SweepResults& results, std::uint64_t scale,
                  const std::vector<std::size_t>& indices,
                  const SweepOptions& options) {
  unsigned workers = options.jobs ? options.jobs
                                  : ThreadPool::default_threads();
  workers = static_cast<unsigned>(std::max<std::size_t>(
      1, std::min<std::size_t>(workers, std::max<std::size_t>(
                                            1, indices.size()))));

  ProgressTracker progress(indices.size(), options.progress);
  const auto run_one = [&](std::size_t i) {
    auto& slot = results.jobs[i];
    const auto start = std::chrono::steady_clock::now();
    try {
      slot.result = sim::run_workload(slot.job.workload, scale,
                                      slot.job.config, slot.job.seed);
      slot.ok = true;
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }
    slot.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    progress.job_done(slot.ok);
  };

  const auto sweep_start = std::chrono::steady_clock::now();
  if (workers == 1) {
    // Serial reference path: same jobs, same slots, no threads at all.
    for (const std::size_t i : indices) run_one(i);
  } else {
    ThreadPool pool(workers);
    for (const std::size_t i : indices) {
      pool.submit([&run_one, i] { run_one(i); });
    }
    pool.wait_idle();
  }
  results.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - sweep_start)
                       .count();
  results.workers = workers;
}

SweepResults run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  auto grid = expand_grid(spec);
  SweepResults out;
  out.jobs.resize(grid.size());
  std::vector<std::size_t> indices(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    out.jobs[i].job = std::move(grid[i]);
    indices[i] = i;
  }
  execute_jobs(out, spec.scale, indices, options);
  return out;
}

}  // namespace hymem::runner
