#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <typeinfo>

#include "io_support.hpp"
#include "trace/record_codec.hpp"

namespace hymem::trace {
namespace {

Trace sample_trace() {
  Trace t("sample");
  t.append(0x1000, AccessType::kRead, 0);
  t.append(0xdeadbeef, AccessType::kWrite, 3);
  t.append(0, AccessType::kRead, 1);
  return t;
}

TEST(TraceIo, BinaryRoundTrip) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_binary(original, buf);
  const Trace loaded = read_binary(buf);
  EXPECT_EQ(loaded.name(), original.name());
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) EXPECT_EQ(loaded[i], original[i]);
}

// The bytes of sample_trace() as trace_io.hpp lays them out.
TEST(TraceIo, BinaryBytesFollowTheFormat) {
  std::stringstream buf;
  write_binary(sample_trace(), buf);
  EXPECT_EQ(hex(buf.str()),
            "48595452"                  // magic "HYTR"
            "01000000"                  // u32 version 1
            "06000000"                  // u32 name_len 6
            "73616d706c65"              // "sample"
            "0300000000000000"          // u64 count 3
            "0010000000000000" "00" "00"  // 0x1000, read, core 0
            "efbeadde00000000" "01" "03"  // 0xdeadbeef, write, core 3
            "0000000000000000" "00" "01"  // 0x0, read, core 1
  );
}

// Sizes on both sides of the record codec's buffer (kBufferRecords), read back
// through a seekable and a non-seekable stream.
TEST(TraceIo, BinaryRoundTripAcrossCodecBuffer) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kBufferRecords - 1, kBufferRecords,
        kBufferRecords + 1, std::size_t{200000}}) {
    const Trace original = random_trace(n, n);
    std::stringstream buf;
    write_binary(original, buf);
    ASSERT_EQ(buf.str().size(), 26 + 10 * n) << n;
    PipeStream pipe(buf.str());
    for (std::istream* in : {static_cast<std::istream*>(&buf),
                             static_cast<std::istream*>(&pipe)}) {
      const Trace loaded = read_binary(*in);
      EXPECT_EQ(loaded.name(), "random");
      ASSERT_EQ(loaded.size(), n);
      EXPECT_TRUE(std::equal(loaded.begin(), loaded.end(), original.begin()))
          << n;
    }
  }
}

// A corrupt header count must not size an allocation: on a seekable stream
// it fails against the bytes that remain, naming the header; on a pipe the
// reader runs out of records first.
TEST(TraceIo, HostileRecordCountThrowsRuntimeError) {
  std::stringstream buf;
  write_binary(sample_trace(), buf);
  const std::string bytes = buf.str();
  // 4 magic + 4 version + 4 name_len + "sample".
  constexpr std::size_t kCountOffset = 18;
  for (const std::uint64_t count :
       {std::uint64_t{3000}, std::uint64_t{1} << 40,
        std::numeric_limits<std::uint64_t>::max()}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + kCountOffset, &count, sizeof(count));
    std::stringstream seekable(corrupt);
    try {
      read_binary(seekable);
      ADD_FAILURE() << "count " << count << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "record count " + std::to_string(count) + " at byte 18"),
                std::string::npos)
          << e.what();
    }
    PipeStream pipe(corrupt);
    EXPECT_THROW(read_binary(pipe), std::runtime_error) << count;
  }
}

TEST(TraceIo, BadAccessTypeNamesByte) {
  std::stringstream buf;
  write_binary(sample_trace(), buf);
  std::string bytes = buf.str();
  // Second record's type byte: 26 header + 10 first record + 8 addr.
  bytes[44] = 5;
  std::stringstream in(bytes);
  try {
    read_binary(in);
    ADD_FAILURE() << "bad type was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad access type 5 at byte 44"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, TextRoundTrip) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_text(original, buf);
  const Trace loaded = read_text(buf, "fallback");
  EXPECT_EQ(loaded.name(), original.name());
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) EXPECT_EQ(loaded[i], original[i]);
}

TEST(TraceIo, TextSkipsCommentsAndBlanks) {
  std::stringstream buf("# comment\n\nR 0x40 0\nW 0x80 1\n");
  const Trace loaded = read_text(buf, "fallback");
  EXPECT_EQ(loaded.name(), "fallback");
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].addr, 0x40u);
  EXPECT_EQ(loaded[1].type, AccessType::kWrite);
  EXPECT_EQ(loaded[1].core, 1);
}

TEST(TraceIo, BadMagicThrows) {
  std::stringstream buf("NOPE....");
  EXPECT_THROW(read_binary(buf), std::runtime_error);
}

TEST(TraceIo, TruncatedBinaryThrows) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_binary(original, buf);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 5);
  std::stringstream cut(bytes);
  EXPECT_THROW(read_binary(cut), std::runtime_error);
}

TEST(TraceIo, BadAccessKindThrows) {
  std::stringstream buf("X 0x40 0\n");
  EXPECT_THROW(read_text(buf), std::runtime_error);
}

// A malformed record throws std::runtime_error naming its line: not
// stoull's std::invalid_argument or std::out_of_range, and not a wrong
// record (address 2^64-1 for "-1", 12 for "12zz", core 44 for 300).
TEST(TraceIo, MalformedTextLinesThrowRuntimeErrorNamingTheLine) {
  for (const std::string bad :
       {"R zzz", "R 0x1ffffffffffffffffffff", "R -1", "R 12zz",
        "W 0x40 300"}) {
    std::stringstream buf("# comment\n\nR 0x40 0\n" + bad + "\n");
    try {
      read_text(buf);
      ADD_FAILURE() << "\"" << bad << "\" decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << bad << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "\"" << bad << "\" threw " << typeid(e).name() << ": "
                    << e.what();
    }
  }
}

TEST(TraceIo, TextAcceptsWhatStrtoullBaseZeroReads) {
  std::stringstream buf("r 0X1f\nw 010 255\nR 18446744073709551615\n");
  const Trace loaded = read_text(buf);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].addr, 0x1fu);
  EXPECT_EQ(loaded[1].addr, 8u);  // a leading 0 is octal
  EXPECT_EQ(loaded[1].core, 255);
  EXPECT_EQ(loaded[2].addr, std::numeric_limits<Addr>::max());
}

TEST(TraceIo, SaveLoadBinaryFile) {
  const Trace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/hymem_io_test.trc";
  save(original, path);
  const Trace loaded = load(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded[1], original[1]);
  std::remove(path.c_str());
}

TEST(TraceIo, SaveLoadTextFile) {
  const Trace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/hymem_io_test.txt";
  save(original, path);
  const Trace loaded = load(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded[0], original[0]);
  std::remove(path.c_str());
}

// MemAccess is packed to the record layout, so the records trace::save
// writes after the HYTR header are the trace's own bytes.
TEST(TraceIo, InMemoryRecordsAreTheFileRecords) {
  const Trace trace = random_trace(1000, 19);
  const std::span<const std::byte> image = std::as_bytes(trace.accesses());
  ASSERT_EQ(image.size(), trace.size() * kRecordBytes);

  const std::string path = ::testing::TempDir() + "/hymem_record_image.trc";
  save(trace, path);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::string file(static_cast<std::size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(file.data(), static_cast<std::streamsize>(file.size()));
  ASSERT_TRUE(in);
  in.close();
  std::remove(path.c_str());
  // 4 magic + 4 version + 4 name_len + name + 8 count.
  const std::size_t hytr_header = 20 + trace.name().size();
  ASSERT_EQ(file.size(), hytr_header + image.size());
  EXPECT_TRUE(std::ranges::equal(
      std::as_bytes(std::span(file)).subspan(hytr_header), image));
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load("/nonexistent/path/file.trc"), std::runtime_error);
}

}  // namespace
}  // namespace hymem::trace
