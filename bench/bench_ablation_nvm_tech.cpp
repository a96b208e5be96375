// Ablation A6: NVM technology sensitivity. Table IV fixes PCM; the paper's
// introduction names STT-RAM and resistive RAM as the other candidates.
// Re-running the comparison with their parameter sets shows how the
// migrate-vs-serve trade-off shifts when NVM writes get cheaper: the closer
// the NVM is to DRAM, the less migration (and the less DRAM) pays.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace hymem;

int main(int argc, char** argv) {
  const auto ctx = bench::parse_args(argc, argv, /*default_scale=*/128,
                                     bench::SharedFlags::kTimeline);
  bench::print_header("Ablation — NVM technology sensitivity", ctx);

  const std::vector<const mem::MemTechnology*> technologies = {
      &mem::pcm_table4(), &mem::stt_ram(), &mem::rram()};
  const std::vector<synth::WorkloadProfile> workloads = {
      synth::parsec_profile("facesim"), synth::parsec_profile("ferret"),
      synth::parsec_profile("vips")};
  // The dram-only baseline first, then the two hybrids it normalizes.
  const std::vector<std::string> policies = {"dram-only", "clock-dwf",
                                             "two-lru"};
  std::vector<runner::ConfigVariant> variants;
  for (const mem::MemTechnology* nvm : technologies) {
    runner::ConfigVariant variant;
    variant.label = "nvm=" + nvm->name;
    variant.config.nvm = *nvm;
    variants.push_back(std::move(variant));
  }
  const auto sweep = bench::run_grid(workloads, policies, ctx, variants);
  if (sweep.failures() != 0) return 1;

  // Grid order is workload-major, then policy, then technology.
  const auto at = [&](std::size_t w, std::size_t p,
                      std::size_t t) -> const sim::RunResult& {
    return sweep.jobs[(w * policies.size() + p) * technologies.size() + t]
        .result;
  };
  for (std::size_t t = 0; t < technologies.size(); ++t) {
    const mem::MemTechnology& nvm = *technologies[t];
    std::cout << "--- NVM = " << nvm.name << " (" << nvm.read_latency_ns
              << "/" << nvm.write_latency_ns << " ns, " << nvm.read_energy_nj
              << "/" << nvm.write_energy_nj << " nJ) ---\n";
    TextTable table({"workload", "policy", "APPR (nJ)", "AMAT (ns)",
                     "vs dram-only power"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      const double dram_only = at(w, 0, t).appr().total();
      for (std::size_t p = 1; p < policies.size(); ++p) {
        const auto& r = at(w, p, t);
        table.add_row({workloads[w].name, policies[p],
                       TextTable::fmt(r.appr().total(), 2),
                       TextTable::fmt(r.amat().total(), 1),
                       TextTable::fmt(r.appr().total() / dram_only, 3)});
      }
    }
    std::cout << table.to_string() << '\n';
  }
  return 0;
}
