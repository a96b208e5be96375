#include "trace/block_source.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "util/check.hpp"
#include "util/flat_page_map.hpp"

namespace hymem::trace {

TraceBlockSource::TraceBlockSource(const Trace& trace, std::uint64_t page_size,
                                   std::size_t block_accesses)
    : trace_(trace),
      page_size_(page_size),
      shift_(std::has_single_bit(page_size) ? std::countr_zero(page_size)
                                            : -1),
      block_accesses_(block_accesses == 0 ? trace.size() : block_accesses) {
  HYMEM_CHECK_MSG(page_size > 0, "page size must be positive");
  const std::size_t capacity = std::min(block_accesses_, trace.size());
  if (capacity > 0) {
    // Guarded: GCC 12's -Wnull-dereference misfires on resize(0) at -O3.
    pages_.resize(capacity);
    types_.resize(capacity);
    hashes_.resize(capacity);
  }
}

const DecodedBlock* TraceBlockSource::next() {
  const std::span<const MemAccess> accesses = trace_.accesses();
  if (cursor_ >= accesses.size()) return nullptr;
  const std::size_t n = std::min(block_accesses_, accesses.size() - cursor_);
  const MemAccess* in = accesses.data() + cursor_;
  for (std::size_t i = 0; i < n; ++i) {
    const PageId page = shift_ >= 0 ? in[i].addr >> shift_
                                    : page_of(in[i].addr, page_size_);
    pages_[i] = page;
    types_[i] = in[i].type;
    hashes_[i] = util::hash_page_id(page);
  }
  cursor_ += n;
  view_ = {pages_.data(), types_.data(), hashes_.data(), n};
  return &view_;
}

StreamBlockSource::StreamBlockSource(std::istream& in, std::uint64_t page_size,
                                     std::size_t block_accesses,
                                     bool readahead)
    : reader_(in),
      page_size_(page_size),
      block_accesses_(block_accesses),
      readahead_(readahead) {
  HYMEM_CHECK_MSG(page_size > 0, "page size must be positive");
  HYMEM_CHECK_MSG(block_accesses > 0, "block size must be positive");
  for (Buffer& buf : buffers_) {
    buf.pages.resize(block_accesses);
    buf.types.resize(block_accesses);
    buf.hashes.resize(block_accesses);
  }
  if (readahead_) start_producer();
}

StreamBlockSource::~StreamBlockSource() { stop_producer(); }

void StreamBlockSource::fill(Buffer& buf) {
  std::size_t n = 0;
  while (n < block_accesses_) {
    const auto access = reader_.next();
    if (!access.has_value()) {
      buf.eof = true;
      break;
    }
    const PageId page = page_of(access->addr, page_size_);
    buf.pages[n] = page;
    buf.types[n] = access->type;
    buf.hashes[n] = util::hash_page_id(page);
    ++n;
  }
  buf.size = n;
}

void StreamBlockSource::producer_loop() {
  while (true) {
    std::unique_lock lock(mutex_);
    free_cv_.wait(lock, [this] {
      return stop_ || !buffers_[produce_index_].filled;
    });
    if (stop_) return;
    Buffer& buf = buffers_[produce_index_];
    buf.eof = false;
    lock.unlock();
    // Decode outside the lock: the consumer never touches an unfilled
    // buffer, so the producer owns it until the filled handoff below.
    try {
      fill(buf);
    } catch (...) {
      lock.lock();
      producer_error_ = std::current_exception();
      filled_cv_.notify_one();
      return;
    }
    lock.lock();
    buf.filled = true;
    filled_cv_.notify_one();
    if (buf.eof) return;  // Terminal block produced; nothing left to decode.
    produce_index_ ^= 1;
  }
}

void StreamBlockSource::start_producer() {
  stop_ = false;
  producer_error_ = nullptr;
  producer_ = std::thread([this] { producer_loop(); });
}

void StreamBlockSource::stop_producer() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  free_cv_.notify_all();
  if (producer_.joinable()) producer_.join();
}

const DecodedBlock* StreamBlockSource::next() {
  if (!readahead_) {
    if (holding_ >= 0) buffers_[static_cast<std::size_t>(holding_)].filled = false;
    holding_ = -1;
    if (finished_) return nullptr;
    Buffer& buf = buffers_[consume_index_];
    buf.eof = false;
    fill(buf);
    if (buf.eof) finished_ = true;
    if (buf.size == 0) return nullptr;
    view_ = {buf.pages.data(), buf.types.data(), buf.hashes.data(), buf.size};
    holding_ = static_cast<int>(consume_index_);
    consume_index_ ^= 1;
    return &view_;
  }
  std::unique_lock lock(mutex_);
  if (holding_ >= 0) {
    buffers_[static_cast<std::size_t>(holding_)].filled = false;
    holding_ = -1;
    free_cv_.notify_one();
  }
  if (finished_) return nullptr;
  filled_cv_.wait(lock, [this] {
    return buffers_[consume_index_].filled || producer_error_ != nullptr;
  });
  if (producer_error_ != nullptr) {
    std::exception_ptr error = producer_error_;
    producer_error_ = nullptr;
    finished_ = true;
    std::rethrow_exception(error);
  }
  Buffer& buf = buffers_[consume_index_];
  if (buf.eof) finished_ = true;
  if (buf.size == 0) {
    buf.filled = false;
    return nullptr;
  }
  view_ = {buf.pages.data(), buf.types.data(), buf.hashes.data(), buf.size};
  holding_ = static_cast<int>(consume_index_);
  consume_index_ ^= 1;
  return &view_;
}

void StreamBlockSource::rewind() {
  if (readahead_) stop_producer();
  reader_.rewind();
  for (Buffer& buf : buffers_) {
    buf.filled = false;
    buf.eof = false;
    buf.size = 0;
  }
  consume_index_ = 0;
  produce_index_ = 0;
  holding_ = -1;
  finished_ = false;
  if (readahead_) start_producer();
}

}  // namespace hymem::trace
