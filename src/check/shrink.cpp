#include "check/shrink.hpp"

#include <map>
#include <vector>

#include "util/check.hpp"
#include "util/units.hpp"

namespace hymem::check {

namespace {

trace::Trace from_accesses(const std::vector<trace::MemAccess>& accesses,
                           const std::string& name) {
  trace::Trace t(name);
  t.reserve(accesses.size());
  for (const trace::MemAccess& a : accesses) t.append(a);
  return t;
}

/// Delta debugging: removes [i, i+chunk) from `best` wherever `fails` still
/// holds, halving the chunk down to single elements, and restarting from
/// the large chunks after any whole pass that removed something. Every
/// predicate call counts against `max_calls` in `calls`; an empty candidate
/// never fails.
template <typename T, typename Fails>
std::vector<T> remove_chunks(std::vector<T> best, const Fails& fails,
                             std::size_t& calls, std::size_t max_calls) {
  bool progress = true;
  while (progress && calls < max_calls) {
    progress = false;
    for (std::size_t chunk = best.size() / 2; chunk >= 1; chunk /= 2) {
      for (std::size_t i = 0; i + chunk <= best.size() && calls < max_calls;) {
        std::vector<T> candidate;
        candidate.reserve(best.size() - chunk);
        candidate.insert(candidate.end(), best.begin(),
                         best.begin() + static_cast<std::ptrdiff_t>(i));
        candidate.insert(
            candidate.end(),
            best.begin() + static_cast<std::ptrdiff_t>(i + chunk), best.end());
        ++calls;
        if (!candidate.empty() && fails(candidate)) {
          best = std::move(candidate);
          progress = true;
          // Do not advance: the next chunk shifted into position i.
        } else {
          ++i;
        }
      }
      if (chunk == 1) break;
    }
  }
  return best;
}

}  // namespace

trace::Trace shrink_trace(const trace::Trace& failing,
                          const FailurePredicate& still_fails,
                          std::size_t max_predicate_calls) {
  HYMEM_CHECK_MSG(!failing.empty(), "cannot shrink an empty trace");
  const std::string name = failing.name() + "-min";
  const auto fails = [&](const std::vector<trace::MemAccess>& candidate) {
    return still_fails(from_accesses(candidate, name));
  };
  std::size_t calls = 0;
  std::vector<trace::MemAccess> best = remove_chunks(
      std::vector<trace::MemAccess>(failing.begin(), failing.end()), fails,
      calls, max_predicate_calls);

  // Canonicalize: renumber pages densely in order of first appearance, so
  // repros read as "page 0, page 1, ..." regardless of the original
  // addresses.
  std::map<PageId, PageId> renumber;
  std::vector<trace::MemAccess> canonical = best;
  for (trace::MemAccess& a : canonical) {
    const PageId page = trace::page_of(a.addr, kDefaultPageSize);
    const auto [it, _] = renumber.try_emplace(page, renumber.size());
    a.addr = it->second * kDefaultPageSize;
  }
  if (calls < max_predicate_calls && fails(canonical)) best = canonical;

  return from_accesses(best, name);
}

std::vector<synth::TenantOp> shrink_tenant_ops(
    const std::vector<synth::TenantOp>& failing,
    const TenantOpsPredicate& still_fails,
    std::size_t max_predicate_calls) {
  HYMEM_CHECK_MSG(!failing.empty(), "cannot shrink an empty op stream");
  std::size_t calls = 0;
  return remove_chunks(failing, still_fails, calls, max_predicate_calls);
}

}  // namespace hymem::check
