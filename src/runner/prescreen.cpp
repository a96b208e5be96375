#include "runner/prescreen.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "sim/experiment.hpp"

namespace hymem::runner {

PrescreenResults run_prescreened_sweep(const SweepSpec& spec,
                                       const PrescreenOptions& options) {
  auto grid = expand_grid(spec);
  PrescreenResults out;
  out.sweep.jobs.resize(grid.size());
  out.screen.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    out.sweep.jobs[i].job = std::move(grid[i]);
    out.screen[i].index = i;
  }

  // One characterization per distinct (workload, seed, page size): the
  // reuse-distance profile does not depend on the policy or sizing knobs,
  // so a whole policy/variant grid shares one O(n log n) pass.
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>,
           sim::AnalyticWorkload>
      characterized;
  const auto characterize = [&](const SweepJob& job)
      -> const sim::AnalyticWorkload& {
    const auto key = std::make_tuple(job.workload.name, job.seed,
                                     job.config.page_size);
    auto it = characterized.find(key);
    if (it == characterized.end()) {
      it = characterized
               .emplace(key, sim::characterize_workload(
                                 job.workload, spec.scale, job.config,
                                 job.seed))
               .first;
    }
    return it->second;
  };

  // Ranking pass: estimate every supported cell, order by (workload,
  // predicted AMAT, grid index). The grid is workload-major, so a workload's
  // cells are one contiguous run of `per_workload` indices. The tie-break on
  // grid index keeps the selected set a pure function of the spec —
  // independent of worker count or timing.
  std::vector<std::size_t> supported;
  for (std::size_t i = 0; i < out.sweep.jobs.size(); ++i) {
    const SweepJob& job = out.sweep.jobs[i].job;
    ScreenedJob& screen = out.screen[i];
    if (!sim::analytic_supported(job.config)) continue;
    const sim::AnalyticWorkload& workload = characterize(job);
    const auto t0 = std::chrono::steady_clock::now();
    screen.estimate = sim::analytic_estimate(workload, job.config);
    out.analytic_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ++out.analytic_evals;
    screen.analytic = true;
    screen.predicted_amat_ns = screen.estimate.amat.total();
    supported.push_back(i);
  }
  const std::size_t per_workload =
      spec.workloads.empty() ? 1
                             : out.sweep.jobs.size() / spec.workloads.size();
  const auto workload_of = [per_workload](std::size_t i) {
    return i / per_workload;
  };
  std::sort(supported.begin(), supported.end(),
            [&](std::size_t a, std::size_t b) {
              if (workload_of(a) != workload_of(b)) {
                return workload_of(a) < workload_of(b);
              }
              const double sa = out.screen[a].predicted_amat_ns;
              const double sb = out.screen[b].predicted_amat_ns;
              return sa != sb ? sa < sb : a < b;
            });

  // Each workload keeps its best `refine_top` supported cells.
  for (std::size_t k = 0, rank = 0; k < supported.size(); ++k, ++rank) {
    if (k > 0 && workload_of(supported[k]) != workload_of(supported[k - 1])) {
      rank = 0;
    }
    if (options.refine_top == 0 || rank < options.refine_top) {
      out.screen[supported[k]].selected = true;
    }
  }
  // Unsupported cells have no prediction to stand on: always simulate.
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < out.sweep.jobs.size(); ++i) {
    if (!out.screen[i].analytic) out.screen[i].selected = true;
    if (out.screen[i].selected) {
      selected.push_back(i);
    } else {
      out.sweep.jobs[i].skipped = true;
    }
  }
  out.simulated = selected.size();

  execute_jobs(out.sweep, spec.scale, selected, options.run);
  return out;
}

}  // namespace hymem::runner
