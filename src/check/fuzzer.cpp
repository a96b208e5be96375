#include "check/fuzzer.hpp"

#include <algorithm>
#include <sstream>

#include "util/fraction.hpp"
#include "util/random.hpp"
#include "util/units.hpp"
#include "util/zipf.hpp"

namespace hymem::check {

namespace {

/// Window size (in queue positions) the scheme will use — the shared
/// round-off-safe rule, so the thrash segment can straddle the exact
/// boundary.
std::size_t window_positions(double perc, std::size_t capacity) {
  return util::snap_ceil_fraction(perc, capacity);
}

template <typename T, std::size_t N>
const T& pick(Rng& rng, const T (&options)[N]) {
  return options[rng.next_below(N)];
}

}  // namespace

FuzzCase make_fuzz_case(std::uint64_t seed, std::size_t accesses) {
  // Seed derivation follows the runner's splitmix64 convention: one stream
  // per concern, all reproducible from the case seed.
  std::uint64_t state = seed;
  Rng shape_rng(splitmix64(state));
  Rng trace_rng(splitmix64(state));

  FuzzCase fc;
  fc.seed = seed;

  // Memory shape. Deliberately tiny so eviction chains, swaps and window
  // boundaries fire constantly; includes the capacity==1 corner.
  static constexpr std::size_t kDramShapes[] = {1, 2, 3, 4, 7, 8, 16, 32, 64};
  static constexpr std::size_t kNvmShapes[] = {1, 2, 3, 5, 8, 16, 48, 96, 192};
  fc.dram_frames = pick(shape_rng, kDramShapes);
  fc.nvm_frames = pick(shape_rng, kNvmShapes);
  if (shape_rng.next_bool(0.05)) fc.dram_frames = fc.nvm_frames = 1;

  // Scheme tunables: fractions that make perc*capacity fractional, plus the
  // degenerate zero-width and whole-queue windows.
  static constexpr double kPercs[] = {0.0, 0.05, 0.1, 0.25, 1.0 / 3.0,
                                      0.5, 0.75, 0.9,  1.0};
  static constexpr std::uint64_t kThresholds[] = {0, 1, 2, 3, 5, 8};
  fc.migration.read_perc = pick(shape_rng, kPercs);
  fc.migration.write_perc = pick(shape_rng, kPercs);
  fc.migration.read_threshold = pick(shape_rng, kThresholds);
  fc.migration.write_threshold =
      fc.migration.read_threshold + shape_rng.next_below(5);
  // Exercise the promotion rate limiter on a fifth of the cases.
  static constexpr std::uint64_t kRates[] = {1, 5, 50};
  fc.migration.max_promotions_per_kacc =
      shape_rng.next_bool(0.2) ? pick(shape_rng, kRates) : 0;

  // Page universe: enough pages to overflow both modules but small enough
  // that reuse (hits, promotions) dominates.
  const std::size_t capacity = fc.dram_frames + fc.nvm_frames;
  const std::size_t universe =
      std::max<std::size_t>(4, capacity + 1 + shape_rng.next_below(3 * capacity + 1));

  fc.trace.set_name("fuzz-" + std::to_string(seed));
  fc.trace.reserve(accesses);
  const auto emit = [&](PageId page, AccessType type) {
    fc.trace.append(page * kDefaultPageSize, type);
  };
  const auto rand_type = [&](double write_ratio) {
    return trace_rng.next_bool(write_ratio) ? AccessType::kWrite
                                            : AccessType::kRead;
  };

  const std::size_t read_window =
      window_positions(fc.migration.read_perc, fc.nvm_frames);
  const std::size_t write_window =
      window_positions(fc.migration.write_perc, fc.nvm_frames);

  while (fc.trace.size() < accesses) {
    const std::size_t remaining = accesses - fc.trace.size();
    const std::size_t segment =
        std::min<std::size_t>(remaining, 16 + trace_rng.next_below(256));
    switch (trace_rng.next_below(7)) {
      case 0: {  // Zipf hot-set: the workload shape the scheme targets.
        const ZipfSampler zipf(universe,
                               0.6 + 0.8 * trace_rng.next_double());
        const double wr = trace_rng.next_double();
        for (std::size_t i = 0; i < segment; ++i) {
          emit(zipf.sample(trace_rng), rand_type(wr));
        }
        break;
      }
      case 1: {  // Sequential ramp (cold misses, steady demotion pressure).
        const PageId base = trace_rng.next_below(universe);
        for (std::size_t i = 0; i < segment; ++i) {
          emit((base + i) % (2 * universe), rand_type(0.3));
        }
        break;
      }
      case 2: {  // Scan: repeated sweep wider than memory (thrash).
        const std::size_t span = capacity + 1 + trace_rng.next_below(capacity);
        for (std::size_t i = 0; i < segment; ++i) {
          emit(i % span, rand_type(0.1));
        }
        break;
      }
      case 3: {  // Phase change: successive small hot sets.
        const std::size_t hot = 1 + trace_rng.next_below(
                                        std::max<std::size_t>(1, capacity / 2));
        const PageId base = trace_rng.next_below(universe);
        const double wr = trace_rng.next_double();
        for (std::size_t i = 0; i < segment; ++i) {
          emit(base + trace_rng.next_below(hot), rand_type(wr));
        }
        break;
      }
      case 4: {  // All-write burst over few pages (write-threshold pressure).
        const std::size_t hot = 1 + trace_rng.next_below(4);
        for (std::size_t i = 0; i < segment; ++i) {
          emit(trace_rng.next_below(hot), AccessType::kWrite);
        }
        break;
      }
      case 5: {  // Single-page hammer (counter saturation, repeat promotion).
        const PageId page = trace_rng.next_below(universe);
        const double wr = trace_rng.next_double();
        for (std::size_t i = 0; i < segment; ++i) emit(page, rand_type(wr));
        break;
      }
      default: {  // Thrash exactly one page past a window boundary: each
                  // round trip pushes the previous page out of the window,
                  // resetting its counter — the adversarial shape for the
                  // boundary bookkeeping.
        const std::size_t window =
            trace_rng.next_bool(0.5) ? read_window : write_window;
        const std::size_t loop = window + 1 + trace_rng.next_below(2);
        const AccessType type = trace_rng.next_bool(0.5) ? AccessType::kWrite
                                                         : AccessType::kRead;
        for (std::size_t i = 0; i < segment; ++i) emit(i % loop, type);
        break;
      }
    }
  }
  return fc;
}

std::string FuzzCase::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " dram=" << dram_frames << " nvm=" << nvm_frames
     << " read_perc=" << migration.read_perc
     << " write_perc=" << migration.write_perc
     << " read_thr=" << migration.read_threshold
     << " write_thr=" << migration.write_threshold
     << " promo/kacc=" << migration.max_promotions_per_kacc
     << " accesses=" << trace.size();
  return os.str();
}

std::string format_trace(const trace::Trace& trace) {
  std::ostringstream os;
  bool first = true;
  for (const trace::MemAccess& a : trace) {
    if (!first) os << ' ';
    first = false;
    os << (a.type == AccessType::kWrite ? 'W' : 'R')
       << a.addr / kDefaultPageSize;
  }
  return os.str();
}

}  // namespace hymem::check
