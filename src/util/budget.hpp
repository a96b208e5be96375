// Integer budget splitting for carving one physical frame budget into
// proportional shares: the multi-tenant group (src/tenant) splits its DRAM
// and NVM frames across tenant shards with it.
//
// Largest-remainder rounding keeps the split exact in integer arithmetic
// (shares always sum to the total) and deterministic (remainder ties break
// to the lowest index), which is what lets budget-conservation invariants
// assert equality instead of tolerances.
#pragma once

#include <cstdint>
#include <vector>

namespace hymem::util {

/// Splits `total` into `weights.size()` integer shares proportional to the
/// weights (largest-remainder rounding, ties to the lowest index), then
/// enforces a floor of 1 on every share with a positive weight by taking
/// from the largest shares. Shares sum to exactly `total`. All-zero weights
/// put the whole total on index 0. Throws std::invalid_argument when the
/// total is too small to give every positively-weighted share its floor.
std::vector<std::uint64_t> split_budget(
    std::uint64_t total, const std::vector<std::uint64_t>& weights);

}  // namespace hymem::util
