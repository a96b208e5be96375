// Microbenchmarks (google-benchmark): raw operation throughput of the
// building blocks — replacement policies, the windowed NVM queue, the cache
// hierarchy, the trace generator, trace file I/O, the side stages of a
// capture replay (footprint count, timeline export) and the end-to-end
// simulator.
#include <benchmark/benchmark.h>

#include <optional>
#include <sstream>
#include <type_traits>

#include "cachesim/hierarchy.hpp"
#include "core/migration_scheme.hpp"
#include "core/nvm_queue.hpp"
#include "obs/epoch.hpp"
#include "obs/timeline_io.hpp"
#include "os/vmm.hpp"
#include "policy/clock.hpp"
#include "policy/lru.hpp"
#include "sim/experiment.hpp"
#include "sim/engine.hpp"
#include "sim/policy_factory.hpp"
#include "synth/cpu_stream.hpp"
#include "synth/generator.hpp"
#include "trace/block_source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"
#include "util/random.hpp"
#include "util/zipf.hpp"

namespace {

using namespace hymem;

// Zipf page streams are pre-sampled outside the timing loops below so the
// measured work is the policy/queue operation itself, not the sampler.
std::vector<PageId> sampled_pages(std::size_t count, std::uint64_t universe,
                                  std::uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(universe, 0.8);
  std::vector<PageId> pages(count);
  for (PageId& page : pages) page = zipf.sample(rng);
  return pages;
}

template <typename Policy>
void BM_ReplacementPolicyChurn(benchmark::State& state,
                               std::type_identity<Policy> /*policy*/) {
  const std::size_t capacity = 4096;
  Policy policy(capacity);
  const std::vector<PageId> pages = sampled_pages(1 << 16, capacity * 4, 7);
  // One benchmark iteration replays the whole pre-sampled stream, so the
  // per-access cost is the policy operation alone, not harness bookkeeping.
  for (auto _ : state) {
    for (const PageId page : pages) {
      if (policy.contains(page)) {
        policy.on_hit(page, AccessType::kRead);
      } else {
        if (policy.full()) {
          policy.erase(*policy.select_victim());
        }
        policy.insert(page, AccessType::kRead);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pages.size()));
}

void BM_CountedLruQueue(benchmark::State& state) {
  const std::size_t capacity = 4096;
  core::CountedLruQueue queue(capacity, 0.1, 0.3);
  Rng rng(5);
  const std::vector<PageId> pages = sampled_pages(1 << 16, capacity, 5);
  std::vector<AccessType> types(pages.size());
  for (AccessType& type : types) {
    type = rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead;
  }
  for (PageId p = 0; p < capacity; ++p) queue.insert_front(p);
  for (auto _ : state) {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      benchmark::DoNotOptimize(queue.record_hit(pages[i], types[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pages.size()));
}

void BM_CacheHierarchy(benchmark::State& state) {
  cachesim::Hierarchy hierarchy((cachesim::HierarchyConfig()));
  synth::CpuStreamOptions opts;
  opts.accesses_per_core = 100000;
  const auto trace = synth::generate_cpu_stream(opts);
  std::size_t i = 0;
  for (auto _ : state) {
    hierarchy.access(trace[i]);
    if (++i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// One x264/4 trace (4.97M accesses) per iteration, so the per-call set-up
// (the Zipf alias tables, the page map, the output allocation) is a small
// share and items/s follows the per-access loop.
void BM_TraceGenerator(benchmark::State& state) {
  synth::WorkloadProfile profile = synth::parsec_profile("x264").scaled(4);
  synth::GeneratorOptions options;
  for (auto _ : state) {
    options.seed++;
    benchmark::DoNotOptimize(synth::generate(profile, options));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(profile.total_accesses()));
}

void BM_EndToEndSimulation(benchmark::State& state,
                           const std::string& policy) {
  const auto profile = synth::parsec_profile("bodytrack");
  sim::ExperimentConfig config;
  config.policy = policy;
  config.warmup_passes = 0;
  std::uint64_t accesses = 0;
  for (auto _ : state) {
    const auto result = sim::run_workload(profile, 128, config, 42);
    accesses += result.accesses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}

// Shared fixture of the replay benchmarks: one generated trace (seed 42)
// plus its Section V.A memory shape.
struct ReplayFixture {
  trace::Trace trace;
  os::VmmConfig vmm_config;
  double roi_seconds = 0;
  sim::ExperimentConfig config;
};

ReplayFixture make_replay_fixture(const std::string& policy,
                                  const std::string& workload,
                                  std::uint32_t scale) {
  ReplayFixture fx;
  const auto profile = synth::parsec_profile(workload).scaled(scale);
  synth::GeneratorOptions options;
  options.seed = 42;
  fx.trace = synth::generate(profile, options);
  fx.roi_seconds = profile.roi_seconds;
  fx.config.policy = policy;
  fx.vmm_config = sim::vmm_config_for(
      sim::size_memory(trace::distinct_pages(fx.trace, fx.config.page_size),
                       fx.config),
      fx.config);
  return fx;
}

// Replay throughput of the simulation core proper: the trace is generated
// and characterized once outside the timing loop, so items/second is
// accesses/sec of sim::run_blocks (one warmup pass + the measured pass,
// block decode included, as in every experiment run), the number every
// figure and sweep cell is built from.
//
// `timeline_epoch` nonzero attaches an obs::EpochSampler with that epoch
// length, so the `_timeline` captures measure the instrumentation-on cost
// against their plain counterparts.
void replay(benchmark::State& state, const ReplayFixture& fx,
            std::uint64_t timeline_epoch) {
  const std::string& policy = fx.config.policy;
  std::uint64_t replayed = 0;
  for (auto _ : state) {
    os::Vmm vmm(fx.vmm_config);
    const auto impl = sim::make_policy(policy, vmm, fx.config.migration);
    trace::TraceBlockSource source(fx.trace, fx.config.page_size);
    std::optional<obs::EpochSampler> sampler;
    if (timeline_epoch > 0) {
      sampler.emplace(
          timeline_epoch, vmm,
          dynamic_cast<const core::TwoLruMigrationPolicy*>(impl.get()),
          fx.roi_seconds);
    }
    const auto result =
        sim::run_blocks(*impl, source, &source, /*warmup_passes=*/1,
                        fx.roi_seconds, sampler ? &*sampler : nullptr);
    benchmark::DoNotOptimize(result.accesses);
    benchmark::DoNotOptimize(result.timeline.epochs.size());
    replayed += 2 * fx.trace.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replayed));
}

// dedup/4: a ~32k-page footprint, so the page table and policy indexes see
// cache pressure instead of fitting in L1; all but the DRAM-sized indexes
// are reserved above FlatPageMap's sparse-table cap.
void BM_RunTrace(benchmark::State& state, const std::string& policy,
                 std::uint64_t timeline_epoch = 0) {
  replay(state, make_replay_fixture(policy, "dedup", 4), timeline_epoch);
}

// streamcluster/64: one fig-grid cell (61 pages, 2.64M accesses), whose
// indexes sit in L1 as those of every fig-grid footprint sit in L1/L2.
void BM_RunTraceFigGridCell(benchmark::State& state,
                            const std::string& policy) {
  replay(state, make_replay_fixture(policy, "streamcluster", 64), 0);
}

// The side stages of a capture replay (perfbench's capture-replay-timeline:
// x264/4, two-LRU, a 1024-access timeline). The footprint count sizes memory
// before every run (items: accesses); the timeline export writes one CSV
// row per epoch (items: epochs).
trace::Trace capture_trace() {
  synth::GeneratorOptions options;
  options.seed = 42;
  return synth::generate(synth::parsec_profile("x264").scaled(4), options);
}

void BM_Footprint(benchmark::State& state) {
  // A loaded capture carries no footprint record, so its runs count the
  // pages; a generated trace would answer from its record. Copy the
  // accesses into a trace without one.
  const trace::Trace generated = capture_trace();
  const trace::Trace t(generated.name(),
                       std::vector<trace::MemAccess>(generated.begin(),
                                                     generated.end()));
  const std::uint64_t page_size = sim::ExperimentConfig().page_size;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::distinct_pages(t, page_size));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}

void BM_TimelineCsv(benchmark::State& state) {
  sim::ExperimentConfig config;
  config.policy = "two-lru";
  config.timeline_epoch = 1024;
  const obs::Timeline timeline =
      sim::run_experiment(capture_trace(),
                          synth::parsec_profile("x264").scaled(4).roi_seconds,
                          config)
          .timeline;
  for (auto _ : state) {
    std::ostringstream out;
    obs::write_timeline_csv(timeline, out);
    benchmark::DoNotOptimize(out.tellp());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(timeline.epochs.size()));
}

// Trace file I/O: the binary format's encode and decode over a 1M-record
// trace held in memory, so bytes/second (items: records) is the codec and
// the stream calls, not the disk. HYTR (trace_io) is how a capture enters a
// run.
constexpr std::int64_t kCodecRecords = 1 << 20;

trace::Trace codec_trace() {
  Rng rng(42);
  trace::Trace t("codec");
  t.reserve(static_cast<std::size_t>(kCodecRecords));
  for (std::int64_t i = 0; i < kCodecRecords; ++i) {
    t.append(rng.next() & ~Addr{63},
             rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead,
             static_cast<std::uint8_t>(rng.next_below(4)));
  }
  return t;
}

void BM_TraceSave(benchmark::State& state) {
  const trace::Trace t = codec_trace();
  std::stringstream bytes;
  for (auto _ : state) {
    bytes.seekp(0);
    trace::write_binary(t, bytes);
    benchmark::DoNotOptimize(&bytes);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.str().size()));
  state.SetItemsProcessed(state.iterations() * kCodecRecords);
}

void BM_TraceLoad(benchmark::State& state) {
  std::stringstream bytes;
  trace::write_binary(codec_trace(), bytes);
  const auto size = static_cast<std::int64_t>(bytes.str().size());
  for (auto _ : state) {
    bytes.clear();
    bytes.seekg(0);
    const trace::Trace t = trace::read_binary(bytes);
    benchmark::DoNotOptimize(t.accesses().data());
  }
  state.SetBytesProcessed(state.iterations() * size);
  state.SetItemsProcessed(state.iterations() * kCodecRecords);
}

BENCHMARK_CAPTURE(BM_ReplacementPolicyChurn, lru,
                  std::type_identity<policy::LruPolicy>{});
BENCHMARK_CAPTURE(BM_ReplacementPolicyChurn, clock,
                  std::type_identity<policy::ClockPolicy>{});
BENCHMARK(BM_CountedLruQueue);
BENCHMARK(BM_CacheHierarchy);
BENCHMARK(BM_TraceGenerator);
BENCHMARK(BM_TraceSave);
BENCHMARK(BM_TraceLoad);
BENCHMARK(BM_Footprint);
BENCHMARK(BM_TimelineCsv);
BENCHMARK_CAPTURE(BM_EndToEndSimulation, two_lru, "two-lru");
BENCHMARK_CAPTURE(BM_EndToEndSimulation, clock_dwf, "clock-dwf");
BENCHMARK_CAPTURE(BM_RunTrace, two_lru, "two-lru");
BENCHMARK_CAPTURE(BM_RunTrace, two_lru_adaptive, "two-lru-adaptive");
BENCHMARK_CAPTURE(BM_RunTrace, clock_dwf, "clock-dwf");
BENCHMARK_CAPTURE(BM_RunTrace, dram_only, "dram-only");
BENCHMARK_CAPTURE(BM_RunTrace, nvm_only, "nvm-only");
BENCHMARK_CAPTURE(BM_RunTrace, rank_mq, "rank-mq");
BENCHMARK_CAPTURE(BM_RunTrace, two_lru_timeline, "two-lru", 1024u);
BENCHMARK_CAPTURE(BM_RunTrace, clock_dwf_timeline, "clock-dwf", 1024u);
BENCHMARK_CAPTURE(BM_RunTraceFigGridCell, dram_only, "dram-only");
BENCHMARK_CAPTURE(BM_RunTraceFigGridCell, nvm_only, "nvm-only");
BENCHMARK_CAPTURE(BM_RunTraceFigGridCell, clock_dwf, "clock-dwf");
BENCHMARK_CAPTURE(BM_RunTraceFigGridCell, two_lru, "two-lru");

}  // namespace

BENCHMARK_MAIN();
