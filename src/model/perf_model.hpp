// Performance model — Equation 1 of the paper.
//
// AMAT =   PHitDRAM * (PRDRAM*TRDRAM + PWDRAM*TWDRAM)
//        + PHitNVM  * (PRNVM*TRNVM  + PWNVM*TWNVM)
//        + PMiss * TDisk
//        + PMigD * PageFactor * (TRNVM + TWDRAM)
//        + PMigN * PageFactor * (TRDRAM + TWNVM)
//
// Implemented on raw counts (mathematically identical, no 0/0 corner cases).
#pragma once

#include "model/events.hpp"
#include "model/model_params.hpp"
#include "model/probabilities.hpp"
#include "util/units.hpp"

namespace hymem::model {

/// Per-request AMAT decomposition, in nanoseconds. The paper's Figs. 2b/4c
/// plot exactly these two stacks: Read/Write Requests (hit_ns + fault_ns is
/// shown as "requests" with faults folded in) and Migrations.
struct AmatBreakdown {
  Nanoseconds hit_ns = 0;        ///< Terms 1-2: demand hits in either module.
  Nanoseconds fault_ns = 0;      ///< Term 3: page faults (disk latency).
  Nanoseconds migration_ns = 0;  ///< Terms 4-5: inter-module migrations.

  Nanoseconds total() const { return hit_ns + fault_ns + migration_ns; }
  /// The paper's "Read/Write Requests" stack (hits + faults).
  Nanoseconds request_ns() const { return hit_ns + fault_ns; }
};

/// Computes Eq. 1 from event counts.
AmatBreakdown amat(const EventCounts& counts, const ModelParams& params);

/// Computes Eq. 1 directly from Table I probabilities — the published form.
/// PageFactor comes from `params.page_factor`. This is the single formula
/// home for probability-form costing: the analytic estimator routes through
/// it (check/oracle_metrics deliberately keeps its own independent
/// recomputation). Agrees with the counts form exactly:
/// PHitDRAM * PRDRAM == dram_read_hits / accesses, including the 0/0 cases.
AmatBreakdown amat(const TableIProbabilities& probs, const ModelParams& params);

}  // namespace hymem::model
