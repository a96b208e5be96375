// Greedy trace minimization for failing differential/fuzz cases.
//
// A raw failing fuzz trace is thousands of accesses; the bug usually needs
// a handful. shrink_trace() runs delta debugging (chunked removal with
// halving chunk sizes down to single accesses, iterated to a fixpoint) and
// then renumbers the surviving pages densely from 0, so the reported repro
// is the smallest trace this greedy process can reach that still fails the
// predicate.
#pragma once

#include <cstddef>
#include <functional>

#include "trace/trace.hpp"

namespace hymem::check {

/// Returns true when `candidate` still reproduces the failure. Must be
/// deterministic (replay-based predicates over fixed configs are).
using FailurePredicate = std::function<bool(const trace::Trace&)>;

/// Minimizes `failing` (which must satisfy `still_fails`) by greedy chunk
/// removal and page renumbering. `max_predicate_calls` bounds the work on
/// stubborn traces; the best trace found so far is returned when the budget
/// runs out.
trace::Trace shrink_trace(const trace::Trace& failing,
                          const FailurePredicate& still_fails,
                          std::size_t max_predicate_calls = 20000);

}  // namespace hymem::check
