// Pins every byte synth::generate produces for the 12 Table III profiles at
// scale 64, two seeds and both ensure_full_footprint settings, so a change
// to the generator, Rng or ZipfSampler cannot move a trace silently.
//
// The hash is FNV-1a (64-bit) over the trace's name, then over the
// accesses' 10-byte packed records in order. Each trace's footprint is
// also checked three ways against a copy of its accesses built with the
// plain (name, vector) constructor, which carries no footprint record:
// the same count at the generator's page size, a count at another page
// size, and a count after an append.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "synth/generator.hpp"
#include "synth/workload_profile.hpp"
#include "trace/trace_stats.hpp"

namespace hymem {
namespace {

constexpr std::uint64_t kScale = 64;
constexpr std::uint64_t kPageSize = 4096;

std::uint64_t fnv1a(std::span<const std::byte> bytes, std::uint64_t h) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t trace_hash(const trace::Trace& t) {
  const std::uint64_t h =
      fnv1a(std::as_bytes(std::span(t.name())), 0xcbf29ce484222325ULL);
  return fnv1a(std::as_bytes(t.accesses()), h);
}

struct Pin {
  std::uint64_t seed;
  bool full_footprint;
  std::uint64_t accesses;
  std::uint64_t hash;
};

struct ProfilePins {
  const char* profile;
  Pin pins[4];
};

// Computed from the generator before its per-access cost was cut.
constexpr ProfilePins kPins[] = {
    {"blackscholes",
     {{42, true, 410, 0xd768db526e6b6f30ULL},
      {42, false, 410, 0x92af8933ab4f3efcULL},
      {2016, true, 410, 0x91be56049e617818ULL},
      {2016, false, 410, 0x5c2c2f8af0b99bb5ULL}}},
    {"bodytrack",
     {{42, true, 16599, 0xe486ae9c26182babULL},
      {42, false, 16599, 0x55b2ea321d5ae86eULL},
      {2016, true, 16599, 0x3e1788f53c83c350ULL},
      {2016, false, 16599, 0x0a49618bfb618913ULL}}},
    {"canneal",
     {{42, true, 391976, 0xa6a143e27d439376ULL},
      {42, false, 391976, 0x4045ebaf726831c3ULL},
      {2016, true, 391976, 0x66594ef5edb1dad5ULL},
      {2016, false, 391976, 0xe53393bb59d3c283ULL}}},
    {"dedup",
     {{42, true, 377896, 0xa8d5042d4a11c5d3ULL},
      {42, false, 377896, 0xe2800444e0ddf493ULL},
      {2016, true, 377896, 0x131a94604d6e71d2ULL},
      {2016, false, 377896, 0x99f2d8549ec3744fULL}}},
    {"facesim",
     {{42, true, 279183, 0xc1ee8bd8673db215ULL},
      {42, false, 279183, 0x26e531c69afbae01ULL},
      {2016, true, 279183, 0xcc7789ba9f70611cULL},
      {2016, false, 279183, 0xa37b81bcb20d2e43ULL}}},
    {"ferret",
     {{42, true, 962069, 0x4eca7e072daa215fULL},
      {42, false, 962069, 0xf1d008eb92cc7efaULL},
      {2016, true, 962069, 0x12538ad0c612ec18ULL},
      {2016, false, 962069, 0x07af185f8f1a97fcULL}}},
    {"fluidanimate",
     {{42, true, 225686, 0x5cddda04f39d81efULL},
      {42, false, 225686, 0x851ab9d68eb41855ULL},
      {2016, true, 225686, 0xa86220e09f638b63ULL},
      {2016, false, 225686, 0x35804f2acfd3bfeeULL}}},
    {"freqmine",
     {{42, true, 193347, 0x09aed1c50f4228a4ULL},
      {42, false, 193347, 0x15bb52bb85388cf7ULL},
      {2016, true, 193347, 0x2025db103843c8b3ULL},
      {2016, false, 193347, 0xdf711179f8d7f0e2ULL}}},
    {"raytrace",
     {{42, true, 34026, 0x24704cfcb3cb1577ULL},
      {42, false, 34026, 0x90c0af2b30b275deULL},
      {2016, true, 34026, 0xa676a9cd11fdcfe1ULL},
      {2016, false, 34026, 0x71a91de5cef531d9ULL}}},
    {"streamcluster",
     {{42, true, 2642422, 0xe7a654d34adca01fULL},
      {42, false, 2642422, 0x819d6b5d990ebb15ULL},
      {2016, true, 2642422, 0xa8a06455ffc0d7b9ULL},
      {2016, false, 2642422, 0xcccb7b17e9a41f26ULL}}},
    {"vips",
     {{42, true, 155004, 0x3084076a4ce82b9eULL},
      {42, false, 155004, 0x1b5c793dfd6c587cULL},
      {2016, true, 155004, 0x8f9cc663f97552cdULL},
      {2016, false, 155004, 0x64e9f3acf64d1543ULL}}},
    {"x264",
     {{42, true, 310776, 0xf22589e338bf2b2eULL},
      {42, false, 310776, 0xf29214785768f608ULL},
      {2016, true, 310776, 0x993e9e4af717d194ULL},
      {2016, false, 310776, 0x5dfa74bee6593216ULL}}},
};

// Names the parameter in test listings instead of dumping its bytes.
void PrintTo(const ProfilePins& entry, std::ostream* os) {
  *os << entry.profile;
}

class TracePin : public ::testing::TestWithParam<ProfilePins> {};

TEST_P(TracePin, BytesAndFootprintMatch) {
  const ProfilePins& entry = GetParam();
  const synth::WorkloadProfile profile =
      synth::parsec_profile(entry.profile).scaled(kScale);
  for (const Pin& pin : entry.pins) {
    SCOPED_TRACE(::testing::Message() << "seed " << pin.seed << ", full "
                                      << pin.full_footprint);
    synth::GeneratorOptions options;
    options.page_size = kPageSize;
    options.seed = pin.seed;
    options.ensure_full_footprint = pin.full_footprint;
    const trace::Trace t = synth::generate(profile, options);
    EXPECT_EQ(t.size(), pin.accesses);
    EXPECT_EQ(trace_hash(t), pin.hash)
        << std::hex << "0x" << trace_hash(t);

    const trace::Trace bare(
        t.name(), std::vector<trace::MemAccess>(t.begin(), t.end()));
    const std::uint64_t counted = trace::distinct_pages(bare, kPageSize);
    EXPECT_EQ(trace::distinct_pages(t, kPageSize), counted);
    if (pin.full_footprint) {
      EXPECT_EQ(counted, profile.footprint_pages(kPageSize));
    }
    // Another page size is counted, not answered from the generator's.
    EXPECT_EQ(trace::distinct_pages(t, 2 * kPageSize),
              trace::distinct_pages(bare, 2 * kPageSize));
    // Every generated page is below footprint_pages, so this append adds
    // one page, and the count must see it.
    trace::Trace grown = t;
    grown.append(profile.footprint_pages(kPageSize) * kPageSize,
                 AccessType::kRead);
    EXPECT_EQ(trace::distinct_pages(grown, kPageSize), counted + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Parsec, TracePin, ::testing::ValuesIn(kPins),
    [](const auto& param_info) {
      return std::string(param_info.param.profile);
    });

}  // namespace
}  // namespace hymem
