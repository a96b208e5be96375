#include "check/differential.hpp"

#include <sstream>
#include <vector>

#include "check/clock_dwf_reference.hpp"
#include "check/invariants.hpp"
#include "check/oracle_metrics.hpp"
#include "check/shrink.hpp"
#include "model/endurance_model.hpp"
#include "model/events.hpp"
#include "model/perf_model.hpp"
#include "model/power_model.hpp"
#include "os/vmm.hpp"
#include "policy/clock_dwf.hpp"
#include "trace/access.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace hymem::check {

namespace {

/// Wall time handed to the power model; arbitrary but shared by both sides.
constexpr double kDurationS = 0.01;

core::MigrationConfig biased(core::MigrationConfig cfg, std::int64_t bias) {
  cfg.read_threshold =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(cfg.read_threshold) + bias);
  cfg.write_threshold =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(cfg.write_threshold) + bias);
  return cfg;
}

std::string join_pages(const std::vector<PageId>& pages) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (i > 0) os << ' ';
    os << pages[i];
  }
  os << ']';
  return os.str();
}

/// Decision reconstructed from the optimized stack's observable state and
/// counter deltas around one on_access call.
struct SimProbe {
  std::optional<Tier> pre_tier;
  std::optional<PageId> pre_nvm_victim;
  std::uint64_t pre_promotions = 0;
  std::uint64_t pre_demotions = 0;
  std::uint64_t pre_throttled = 0;
  std::uint64_t pre_page_outs = 0;

  static SimProbe before(const core::TwoLruMigrationPolicy& policy,
                         PageId page) {
    SimProbe p;
    p.pre_tier = policy.vmm().tier_of(page);
    p.pre_nvm_victim = policy.nvm_queue().lru_victim();
    p.pre_promotions = policy.promotions();
    p.pre_demotions = policy.demotions();
    p.pre_throttled = policy.throttled_promotions();
    p.pre_page_outs = policy.vmm().disk().page_outs();
    return p;
  }

  Decision after(const core::TwoLruMigrationPolicy& policy, PageId page) const {
    Decision d;
    if (!pre_tier.has_value()) {
      d.outcome = Outcome::kFault;
    } else if (*pre_tier == Tier::kDram) {
      d.outcome = Outcome::kDramHit;
    } else {
      d.outcome = policy.promotions() > pre_promotions ? Outcome::kPromotion
                                                       : Outcome::kNvmHit;
    }
    d.throttled = policy.throttled_promotions() > pre_throttled;
    if (policy.demotions() > pre_demotions) {
      // Any demotion (fault- or promotion-forced) leaves the DRAM victim at
      // the NVM queue head.
      const auto front = [&] {
        PageId first = kInvalidPage;
        bool taken = false;
        policy.nvm_queue().for_each_mru_to_lru([&](PageId p) {
          if (!taken) {
            first = p;
            taken = true;
          }
        });
        return first;
      };
      d.demoted = front();
    }
    // An eviction chain (only possible on a fault into full memory) removes
    // the pre-access NVM LRU victim from memory entirely.
    if (pre_nvm_victim.has_value() && page != *pre_nvm_victim &&
        !policy.vmm().tier_of(*pre_nvm_victim).has_value()) {
      d.evicted = *pre_nvm_victim;
      d.evicted_dirty = policy.vmm().disk().page_outs() > pre_page_outs;
    }
    return d;
  }
};

std::optional<std::string> diff_decisions(const Decision& sim,
                                          const Decision& oracle) {
  std::ostringstream os;
  if (sim.outcome != oracle.outcome) {
    os << "outcome: sim " << to_string(sim.outcome) << " vs oracle "
       << to_string(oracle.outcome);
    return os.str();
  }
  if (sim.demoted != oracle.demoted) {
    os << "demoted victim: sim " << static_cast<std::int64_t>(sim.demoted)
       << " vs oracle " << static_cast<std::int64_t>(oracle.demoted);
    return os.str();
  }
  if (sim.evicted != oracle.evicted) {
    os << "evicted victim: sim " << static_cast<std::int64_t>(sim.evicted)
       << " vs oracle " << static_cast<std::int64_t>(oracle.evicted);
    return os.str();
  }
  if (sim.evicted_dirty != oracle.evicted_dirty) {
    os << "eviction dirtiness: sim " << sim.evicted_dirty << " vs oracle "
       << oracle.evicted_dirty;
    return os.str();
  }
  if (sim.throttled != oracle.throttled) {
    os << "throttling: sim " << sim.throttled << " vs oracle "
       << oracle.throttled;
    return os.str();
  }
  return std::nullopt;
}

/// Queue orders, windowed counters, window membership, promotion scores.
std::optional<std::string> deep_diff(
    const core::TwoLruMigrationPolicy& policy, const ReferenceModel& oracle) {
  std::vector<PageId> sim_dram;
  policy.dram_queue().for_each_mru_to_lru(
      [&](PageId p) { sim_dram.push_back(p); });
  const std::vector<PageId> ref_dram = oracle.dram_mru_to_lru();
  if (sim_dram != ref_dram) {
    return "DRAM LRU order: sim " + join_pages(sim_dram) + " vs oracle " +
           join_pages(ref_dram);
  }
  std::vector<PageId> sim_nvm;
  policy.nvm_queue().for_each_mru_to_lru(
      [&](PageId p) { sim_nvm.push_back(p); });
  const std::vector<PageId> ref_nvm = oracle.nvm_mru_to_lru();
  if (sim_nvm != ref_nvm) {
    return "NVM LRU order: sim " + join_pages(sim_nvm) + " vs oracle " +
           join_pages(ref_nvm);
  }
  for (const PageId page : sim_nvm) {
    const core::CountedLruQueue& q = policy.nvm_queue();
    if (q.in_read_window(page) != oracle.in_read_window(page) ||
        q.in_write_window(page) != oracle.in_write_window(page)) {
      std::ostringstream os;
      os << "window membership of page " << page << ": sim r/w "
         << q.in_read_window(page) << '/' << q.in_write_window(page)
         << " vs oracle " << oracle.in_read_window(page) << '/'
         << oracle.in_write_window(page);
      return os.str();
    }
    if (q.read_counter(page) != oracle.read_counter(page) ||
        q.write_counter(page) != oracle.write_counter(page)) {
      std::ostringstream os;
      os << "counters of page " << page << ": sim r/w "
         << q.read_counter(page) << '/' << q.write_counter(page)
         << " vs oracle " << oracle.read_counter(page) << '/'
         << oracle.write_counter(page);
      return os.str();
    }
  }
  for (const PageId page : sim_dram) {
    const auto sim_score = policy.dram_queue().promotion_hits(page);
    const auto ref_score = oracle.promotion_hits(page);
    if (sim_score != ref_score) {
      std::ostringstream os;
      os << "promotion score of page " << page << ": sim "
         << (sim_score ? static_cast<std::int64_t>(*sim_score) : -1)
         << " vs oracle "
         << (ref_score ? static_cast<std::int64_t>(*ref_score) : -1);
      return os.str();
    }
  }
  return std::nullopt;
}

/// Raw event-count ledgers, then the model outputs vs the oracle's
/// independent probability-form recomputation.
std::optional<std::string> diff_end_state(const os::Vmm& vmm,
                                          const ReferenceCounts& ref,
                                          std::uint64_t accesses) {
  const model::EventCounts sim =
      model::EventCounts::from_vmm(vmm, accesses);
  const auto count = [](const char* name, std::uint64_t a,
                        std::uint64_t b) -> std::optional<std::string> {
    if (a == b) return std::nullopt;
    std::ostringstream os;
    os << name << ": sim " << a << " vs oracle " << b;
    return os.str();
  };
  if (auto d = count("dram_read_hits", sim.dram_read_hits, ref.dram_read_hits))
    return d;
  if (auto d =
          count("dram_write_hits", sim.dram_write_hits, ref.dram_write_hits))
    return d;
  if (auto d = count("nvm_read_hits", sim.nvm_read_hits, ref.nvm_read_hits))
    return d;
  if (auto d = count("nvm_write_hits", sim.nvm_write_hits, ref.nvm_write_hits))
    return d;
  if (auto d = count("page_faults", sim.page_faults, ref.page_faults)) return d;
  if (auto d = count("fills_to_dram", sim.fills_to_dram, ref.fills_to_dram))
    return d;
  if (auto d = count("fills_to_nvm", sim.fills_to_nvm, ref.fills_to_nvm))
    return d;
  if (auto d = count("migrations_to_dram", sim.migrations_to_dram,
                     ref.migrations_to_dram))
    return d;
  if (auto d = count("migrations_to_nvm", sim.migrations_to_nvm,
                     ref.migrations_to_nvm))
    return d;
  if (auto d =
          count("dirty_evictions", sim.dirty_evictions, ref.dirty_evictions))
    return d;
  // NVM physical-write ledger: the endurance tracker against the oracle's
  // independent cell-write accounting.
  const mem::EnduranceTracker& wear = vmm.nvm_endurance();
  if (auto d = count("nvm demand cell writes",
                     wear.writes_from(mem::NvmWriteSource::kDemandWrite),
                     ref.nvm_demand_cell_writes))
    return d;
  if (auto d = count("nvm fill cell writes",
                     wear.writes_from(mem::NvmWriteSource::kPageFault),
                     ref.nvm_fill_cell_writes))
    return d;
  if (auto d = count("nvm migration cell writes",
                     wear.writes_from(mem::NvmWriteSource::kMigration),
                     ref.nvm_migration_cell_writes))
    return d;
  // Model outputs: Eq. 1/2/3 + endurance breakdown.
  const model::ModelParams params = model::ModelParams::from_vmm(vmm);
  const OracleMetrics recomputed =
      recompute_metrics(ref, params, vmm.page_factor(), kDurationS);
  return diff_metrics(recomputed, model::amat(sim, params),
                      model::appr(sim, params, kDurationS),
                      model::nvm_writes(sim));
}

/// Shrinks `report`'s failing trace under `replay` (a differential run
/// over the same spec, named `entry` in the rerun line) and writes the
/// reproduction summary.
template <typename Replay>
void shrink_and_report(FuzzReport& report, const char* entry,
                       const Replay& replay) {
  report.minimal = shrink_trace(
      report.fuzz.trace, [&replay](const trace::Trace& candidate) {
        return !replay(candidate).ok();
      });
  const DiffResult minimal_result = replay(report.minimal);

  std::ostringstream os;
  os << "differential divergence\n"
     << "  case:   " << report.fuzz.describe() << "\n"
     << "  first:  ";
  if (report.result.divergence->access_index == Divergence::kEndOfRun) {
    os << "end of run";
  } else {
    os << "access " << report.result.divergence->access_index;
  }
  os << " — " << report.result.divergence->what << "\n"
     << "  shrunk: " << report.minimal.size() << " accesses (from "
     << report.fuzz.trace.size() << ")\n"
     << "  repro:  " << format_trace(report.minimal) << "\n"
     << "  reason: "
     << (minimal_result.divergence ? minimal_result.divergence->what
                                   : std::string("(no longer fails?)"))
     << "\n"
     << "  rerun:  " << entry << "(trace, spec) with the case line above";
  report.summary = os.str();
}

}  // namespace

DiffResult run_differential(const trace::Trace& trace, const DiffSpec& spec) {
  HYMEM_CHECK_MSG(!trace.empty(), "differential run over an empty trace");
  os::VmmConfig vmm_config;
  vmm_config.dram_frames = spec.dram_frames;
  vmm_config.nvm_frames = spec.nvm_frames;
  os::Vmm vmm(vmm_config);
  core::TwoLruMigrationPolicy policy(vmm, spec.migration);
  if (spec.invariants_every_access) install_invariant_hook(policy);
  ReferenceModel oracle(spec.dram_frames, spec.nvm_frames,
                        biased(spec.migration, spec.oracle_threshold_bias),
                        vmm.page_factor());

  DiffResult result;
  const std::uint64_t page_size = vmm.config().page_size;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const PageId page = trace::page_of(trace[i].addr, page_size);
    const AccessType type = trace[i].type;
    const SimProbe probe = SimProbe::before(policy, page);
    Decision sim_decision;
    try {
      policy.on_access(page, type);
      sim_decision = probe.after(policy, page);
    } catch (const std::logic_error& e) {
      // An invariant tripped mid-access: report it at this index.
      result.accesses = i + 1;
      result.divergence = Divergence{i, std::string("invariant: ") + e.what()};
      return result;
    }
    ++result.accesses;
    const Decision ref_decision = oracle.on_access(page, type);
    if (auto d = diff_decisions(sim_decision, ref_decision)) {
      result.divergence = Divergence{i, "decision: " + *d};
      return result;
    }
    if (policy.vmm().tier_of(page) != oracle.tier_of(page)) {
      result.divergence = Divergence{i, "placement of the accessed page"};
      return result;
    }
    const bool deep_now =
        spec.deep_diff_stride != 0 && (i + 1) % spec.deep_diff_stride == 0;
    if (deep_now || i + 1 == trace.size()) {
      if (auto d = deep_diff(policy, oracle)) {
        result.divergence = Divergence{i, "state: " + *d};
        return result;
      }
    }
  }
  if (auto d = diff_end_state(policy.vmm(), oracle.counts(), result.accesses)) {
    result.divergence = Divergence{Divergence::kEndOfRun, "end state: " + *d};
  }
  return result;
}

FuzzReport run_fuzz_case(std::uint64_t seed, std::size_t accesses,
                         std::int64_t oracle_threshold_bias) {
  FuzzReport report;
  report.fuzz = make_fuzz_case(seed, accesses);
  DiffSpec spec = DiffSpec::from_fuzz(report.fuzz);
  spec.oracle_threshold_bias = oracle_threshold_bias;
  report.result = run_differential(report.fuzz.trace, spec);
  if (report.result.ok()) return report;
  // Invariant audits stay on so corruption-type failures shrink too.
  shrink_and_report(report, "run_differential",
                    [&spec](const trace::Trace& candidate) {
                      return run_differential(candidate, spec);
                    });
  return report;
}

namespace {

/// CLOCK-DWF's decision for one access, reconstructed from the VMM and the
/// two clocks before and after the call.
struct DwfProbe {
  std::optional<Tier> pre_tier;
  std::vector<PageId> pre_dram;
  std::vector<PageId> pre_nvm;
  std::uint64_t pre_page_outs = 0;

  static DwfProbe before(const policy::ClockDwfPolicy& policy, PageId page) {
    DwfProbe p;
    p.pre_tier = policy.vmm().tier_of(page);
    policy.dram_clock().for_each_from_hand(
        [&p](PageId q, bool) { p.pre_dram.push_back(q); });
    policy.nvm_clock().for_each_from_hand(
        [&p](PageId q, bool) { p.pre_nvm.push_back(q); });
    p.pre_page_outs = policy.vmm().disk().page_outs();
    return p;
  }

  DwfDecision after(const policy::ClockDwfPolicy& policy, PageId page) const {
    const os::Vmm& vmm = policy.vmm();
    DwfDecision d;
    const std::optional<Tier> post_tier = vmm.tier_of(page);
    if (!pre_tier.has_value()) {
      d.outcome = post_tier == Tier::kDram ? DwfOutcome::kFaultToDram
                                           : DwfOutcome::kFaultToNvm;
    } else if (*pre_tier == Tier::kDram) {
      d.outcome = DwfOutcome::kDramHit;
    } else {
      d.outcome = post_tier == Tier::kDram ? DwfOutcome::kPromotion
                                           : DwfOutcome::kNvmHit;
    }
    for (const PageId q : pre_dram) {
      if (q != page && vmm.tier_of(q) == Tier::kNvm) d.demoted = q;
    }
    for (const PageId q : pre_nvm) {
      if (q != page && !vmm.tier_of(q).has_value()) {
        d.evicted = q;
        d.evicted_dirty = vmm.disk().page_outs() > pre_page_outs;
      }
    }
    return d;
  }
};

std::optional<std::string> diff_dwf_decisions(const DwfDecision& sim,
                                              const DwfDecision& oracle) {
  std::ostringstream os;
  if (sim.outcome != oracle.outcome) {
    os << "outcome: sim " << to_string(sim.outcome) << " vs oracle "
       << to_string(oracle.outcome);
  } else if (sim.demoted != oracle.demoted) {
    os << "demoted victim: sim " << static_cast<std::int64_t>(sim.demoted)
       << " vs oracle " << static_cast<std::int64_t>(oracle.demoted);
  } else if (sim.evicted != oracle.evicted) {
    os << "evicted victim: sim " << static_cast<std::int64_t>(sim.evicted)
       << " vs oracle " << static_cast<std::int64_t>(oracle.evicted);
  } else if (sim.evicted_dirty != oracle.evicted_dirty) {
    os << "eviction dirtiness: sim " << sim.evicted_dirty << " vs oracle "
       << oracle.evicted_dirty;
  } else {
    return std::nullopt;
  }
  return os.str();
}

std::string join_ring(const RingView& ring) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (i > 0) os << ' ';
    os << ring[i].first << (ring[i].second ? "*" : "");
  }
  os << ']';
  return os.str();
}

/// Both rings in order from the hand, reference bits included ("*").
std::optional<std::string> deep_diff_dwf(const policy::ClockDwfPolicy& policy,
                                         const ClockDwfReference& oracle) {
  const auto ring_of = [](const policy::ClockPolicy& clock) {
    RingView out;
    clock.for_each_from_hand(
        [&out](PageId page, bool ref) { out.emplace_back(page, ref); });
    return out;
  };
  const RingView sim_dram = ring_of(policy.dram_clock());
  const RingView ref_dram = oracle.dram_ring();
  if (sim_dram != ref_dram) {
    return "DRAM clock: sim " + join_ring(sim_dram) + " vs oracle " +
           join_ring(ref_dram);
  }
  const RingView sim_nvm = ring_of(policy.nvm_clock());
  const RingView ref_nvm = oracle.nvm_ring();
  if (sim_nvm != ref_nvm) {
    return "NVM clock: sim " + join_ring(sim_nvm) + " vs oracle " +
           join_ring(ref_nvm);
  }
  return std::nullopt;
}

}  // namespace

DiffResult run_clock_dwf_differential(const trace::Trace& trace,
                                      const DwfDiffSpec& spec) {
  HYMEM_CHECK_MSG(!trace.empty(), "differential run over an empty trace");
  os::VmmConfig vmm_config;
  vmm_config.dram_frames = spec.dram_frames;
  vmm_config.nvm_frames = spec.nvm_frames;
  os::Vmm vmm(vmm_config);
  policy::ClockDwfPolicy policy(vmm);
  ClockDwfReference oracle(spec.dram_frames, spec.nvm_frames,
                           vmm.page_factor(), spec.oracle_dram_read_ref);

  DiffResult result;
  const std::uint64_t page_size = vmm.config().page_size;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const PageId page = trace::page_of(trace[i].addr, page_size);
    const AccessType type = trace[i].type;
    const DwfProbe probe = DwfProbe::before(policy, page);
    DwfDecision sim_decision;
    try {
      policy.on_access(page, type);
      sim_decision = probe.after(policy, page);
      // The clocks track residency exactly, and the VMM ledgers agree.
      HYMEM_CHECK_MSG(policy.dram_clock().size() == vmm.resident(Tier::kDram),
                      "DRAM clock does not cover DRAM residency");
      HYMEM_CHECK_MSG(policy.nvm_clock().size() == vmm.resident(Tier::kNvm),
                      "NVM clock does not cover NVM residency");
      vmm.check_consistency();
    } catch (const std::logic_error& e) {
      result.accesses = i + 1;
      result.divergence = Divergence{i, std::string("invariant: ") + e.what()};
      return result;
    }
    ++result.accesses;
    const DwfDecision ref_decision = oracle.on_access(page, type);
    if (auto d = diff_dwf_decisions(sim_decision, ref_decision)) {
      result.divergence = Divergence{i, "decision: " + *d};
      return result;
    }
    if (vmm.tier_of(page) != oracle.tier_of(page)) {
      result.divergence = Divergence{i, "placement of the accessed page"};
      return result;
    }
    const bool deep_now =
        spec.deep_diff_stride != 0 && (i + 1) % spec.deep_diff_stride == 0;
    if (deep_now || i + 1 == trace.size()) {
      if (auto d = deep_diff_dwf(policy, oracle)) {
        result.divergence = Divergence{i, "state: " + *d};
        return result;
      }
    }
  }
  if (auto d = diff_end_state(vmm, oracle.counts(), result.accesses)) {
    result.divergence = Divergence{Divergence::kEndOfRun, "end state: " + *d};
  }
  return result;
}

FuzzReport run_clock_dwf_fuzz_case(std::uint64_t seed, std::size_t accesses,
                                   bool oracle_dram_read_ref) {
  FuzzReport report;
  report.fuzz = make_fuzz_case(seed, accesses);
  DwfDiffSpec spec = DwfDiffSpec::from_fuzz(report.fuzz);
  spec.oracle_dram_read_ref = oracle_dram_read_ref;
  report.result = run_clock_dwf_differential(report.fuzz.trace, spec);
  if (report.result.ok()) return report;
  shrink_and_report(report, "run_clock_dwf_differential",
                    [&spec](const trace::Trace& candidate) {
                      return run_clock_dwf_differential(candidate, spec);
                    });
  return report;
}

}  // namespace hymem::check
