#include "trace/stream_io.hpp"

#include <array>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "trace/record_codec.hpp"
#include "util/check.hpp"

namespace hymem::trace {

namespace {

constexpr std::array<char, 4> kMagic = {'H', 'Y', 'T', 'S'};

}  // namespace

StreamTraceWriter::StreamTraceWriter(std::ostream& out, std::string name,
                                     std::size_t chunk_records)
    : out_(out), chunk_records_(chunk_records) {
  HYMEM_CHECK_MSG(chunk_records > 0, "chunk size must be positive");
  out_.write(kMagic.data(), kMagic.size());
  put<std::uint32_t>(out_, kStreamFormatVersion);
  put<std::uint32_t>(out_, static_cast<std::uint32_t>(name.size()));
  out_.write(name.data(), static_cast<std::streamsize>(name.size()));
  pending_.reserve(chunk_records);
}

StreamTraceWriter::~StreamTraceWriter() {
  if (!finished_) finish();
}

void StreamTraceWriter::flush_chunk() {
  if (pending_.empty()) return;
  put<std::uint32_t>(out_, static_cast<std::uint32_t>(pending_.size()));
  write_records(out_, pending_);
  pending_.clear();
}

void StreamTraceWriter::append(const MemAccess& access) {
  HYMEM_CHECK_MSG(!finished_, "append after finish");
  pending_.push_back(access);
  ++written_;
  if (pending_.size() >= chunk_records_) flush_chunk();
}

void StreamTraceWriter::finish() {
  if (finished_) return;
  flush_chunk();
  put<std::uint32_t>(out_, 0);  // terminator
  finished_ = true;
}

template <typename T>
T StreamTraceReader::take(const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in_.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in_) {
    throw std::runtime_error("hymem stream trace: truncated " +
                             std::string(what) + " at byte " +
                             std::to_string(offset_));
  }
  offset_ += sizeof(value);
  return value;
}

StreamTraceReader::StreamTraceReader(std::istream& in) : in_(in) {
  std::array<char, 4> magic{};
  in_.read(magic.data(), magic.size());
  if (!in_ || magic != kMagic) {
    throw std::runtime_error("hymem stream trace: bad magic at byte 0");
  }
  offset_ += magic.size();
  const auto version = take<std::uint32_t>("version");
  if (version != kStreamFormatVersion) {
    throw std::runtime_error("hymem stream trace: unsupported version " +
                             std::to_string(version) + " at byte 4");
  }
  const auto name_len = take<std::uint32_t>("name length");
  if (!read_bytes(in_, name_len, name_)) {
    throw std::runtime_error("hymem stream trace: truncated name at byte " +
                             std::to_string(offset_));
  }
  offset_ += name_len;
  data_offset_ = offset_;
}

bool StreamTraceReader::load_chunk() {
  const std::uint64_t header_offset = offset_;
  const auto count = take<std::uint32_t>("chunk header");
  if (count == 0) {
    done_ = true;
    return false;
  }
  const auto chunk_error = [&](const std::string& what) {
    return std::runtime_error("hymem stream trace: " + what + " (chunk of " +
                              std::to_string(count) +
                              " records starting at byte " +
                              std::to_string(header_offset) + ")");
  };
  // Record size is fixed, so a header's claim is checkable directly against
  // a seekable stream: a corrupt count fails here with the header's own
  // offset rather than a truncation deep inside the chunk.
  const std::uint64_t claimed = count * std::uint64_t{kRecordBytes};
  if (const auto left = remaining_bytes(in_); left && *left < claimed) {
    throw chunk_error("chunk header claims " + std::to_string(claimed) +
                      " record bytes but only " + std::to_string(*left) +
                      " remain");
  }
  chunk_.clear();
  const RecordsRead got = read_records(in_, count, chunk_);
  offset_ += got.records * kRecordBytes;
  if (got.bad_type) {
    throw chunk_error("bad access type " + std::to_string(*got.bad_type) +
                      " at byte " + std::to_string(offset_ + sizeof(Addr)));
  }
  if (got.records < count) {
    throw chunk_error("truncated record at byte " + std::to_string(offset_));
  }
  cursor_ = 0;
  return true;
}

std::optional<MemAccess> StreamTraceReader::next_in_new_chunk() {
  if (done_ || !load_chunk()) return std::nullopt;
  return next();
}

void StreamTraceReader::rewind() {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(data_offset_));
  if (!in_) {
    throw std::runtime_error(
        "hymem stream trace: rewind failed (stream not seekable)");
  }
  offset_ = data_offset_;
  chunk_.clear();
  cursor_ = 0;
  read_ = 0;
  done_ = false;
}

}  // namespace hymem::trace
