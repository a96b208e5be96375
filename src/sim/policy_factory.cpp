#include "sim/policy_factory.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/migration_scheme.hpp"
#include "policy/clock_dwf.hpp"
#include "policy/dram_cache.hpp"
#include "policy/rank_mq.hpp"
#include "policy/single_tier.hpp"
#include "policy/static_partition.hpp"
#include "sample/sampled_policy.hpp"

namespace hymem::sim {

std::vector<std::string> policy_names() {
  return {"dram-only",  "nvm-only", "clock-dwf",   "two-lru",
          "two-lru-adaptive",       "static-partition",
          "dram-cache", "rank-mq",  "sampled-lru"};
}

namespace {

/// Unknown names usually arrive from CLI flags; list the registry in the
/// error so the caller does not have to go find it.
[[noreturn]] void throw_unknown_policy(const std::string& name) {
  std::string msg = "unknown policy: " + name + " (known: ";
  bool first = true;
  for (const std::string& known : policy_names()) {
    if (!first) msg += ", ";
    msg += known;
    first = false;
  }
  throw std::invalid_argument(msg + ")");
}

}  // namespace

void check_policy_name(const std::string& name) {
  const std::vector<std::string> known = policy_names();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    throw_unknown_policy(name);
  }
}

bool is_single_tier(const std::string& name) {
  return name == "dram-only" || name == "nvm-only";
}

std::unique_ptr<policy::HybridPolicy> make_policy(
    const std::string& name, os::Vmm& vmm,
    const core::MigrationConfig& migration,
    const sample::SampleConfig& sample) {
  if (is_single_tier(name)) {
    return std::make_unique<policy::SingleTierPolicy>(
        vmm, name == "dram-only" ? Tier::kDram : Tier::kNvm);
  }
  if (name == "clock-dwf") {
    return std::make_unique<policy::ClockDwfPolicy>(vmm);
  }
  if (name == "two-lru" || name == "two-lru-adaptive") {
    core::MigrationConfig cfg = migration;
    cfg.adaptive = (name == "two-lru-adaptive");
    return std::make_unique<core::TwoLruMigrationPolicy>(vmm, cfg);
  }
  if (name == "static-partition") {
    return std::make_unique<policy::StaticPartitionPolicy>(vmm);
  }
  if (name == "dram-cache") {
    return std::make_unique<policy::DramCachePolicy>(vmm);
  }
  if (name == "rank-mq") {
    return std::make_unique<policy::RankMqPolicy>(vmm);
  }
  if (name == "sampled-lru") {
    return sample::make_sampled_lru(vmm, sample);
  }
  throw_unknown_policy(name);
}

}  // namespace hymem::sim
