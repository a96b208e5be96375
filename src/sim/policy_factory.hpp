// Hybrid-policy factory: builds any policy in the suite by name against a
// configured VMM.
//
// Names:
//   "dram-only"          DRAM-only main memory, LRU (Fig. 1 baseline)
//   "nvm-only"           NVM-only main memory, LRU (endurance baseline)
//   "clock-dwf"          CLOCK-DWF (Lee et al.)
//   "two-lru"            the paper's proposed scheme
//   "two-lru-adaptive"   proposed scheme + adaptive thresholds (extension)
//   "static-partition"   hash-partitioned hybrid, no migrations (ablation)
//   "dram-cache"         promote-on-touch DRAM cache over NVM (related work)
//   "sampled-lru"        sampled hotness + async bounded migrator (src/sample)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/migration_config.hpp"
#include "policy/hybrid_policy.hpp"
#include "sample/config.hpp"

namespace hymem::sim {

/// All accepted names.
std::vector<std::string> policy_names();

/// Names usable where one run is split across independent policy
/// instances sharing a physical budget (tenant groups): everything except
/// the sampled-* family, whose hotness tap and migrator are per-run global
/// structures.
std::vector<std::string> shardable_policy_names();

/// Throws std::invalid_argument, listing the known names, unless `name` is
/// one of policy_names(); make_policy throws the same message.
void check_policy_name(const std::string& name);

/// True if the name can run split across independent policy instances.
bool is_shardable(const std::string& name);

/// Rejects a policy a split-budget context cannot host. `context` names the
/// caller ("tenant groups"); the message enumerates
/// the supported names so CLI users do not have to go find them.
[[noreturn]] void throw_unshardable_policy(const std::string& context,
                                           const std::string& name);

/// True if the name is "dram-only" or "nvm-only", the single-module
/// policies.
bool is_single_tier(const std::string& name);

/// Builds a policy. The VMM must be sized consistently (single-module
/// policies need the other module at zero frames). `sample` configures the
/// "sampled-lru" policy and is ignored by every other name. Throws
/// std::invalid_argument for unknown names, listing the known ones.
std::unique_ptr<policy::HybridPolicy> make_policy(
    const std::string& name, os::Vmm& vmm,
    const core::MigrationConfig& migration = {},
    const sample::SampleConfig& sample = {});

}  // namespace hymem::sim
