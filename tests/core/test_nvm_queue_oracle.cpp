// Differential test: the O(1) windowed-counter queue against a naive oracle
// that re-derives window membership from positions after every operation —
// a direct transcription of Algorithm 1's semantics with O(n) scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/nvm_queue.hpp"
#include "util/random.hpp"

namespace hymem::core {
namespace {

/// The executable specification.
class OracleQueue {
 public:
  OracleQueue(std::size_t capacity, double read_perc, double write_perc)
      : capacity_(capacity),
        read_target_(target(read_perc)),
        write_target_(target(write_perc)) {}

  std::uint64_t record_hit(PageId page, AccessType type) {
    const std::size_t pos = index_of(page);
    const bool is_read = type == AccessType::kRead;
    const std::size_t window = is_read ? read_window() : write_window();
    const bool was_in = pos < window;
    // Move to MRU.
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));
    order_.push_front(page);
    auto& ctr = is_read ? read_ctr_[page] : write_ctr_[page];
    ctr = was_in ? ctr + 1 : 1;
    reset_outside_windows();
    return ctr;
  }

  void insert_front(PageId page) {
    order_.push_front(page);
    read_ctr_[page] = 0;
    write_ctr_[page] = 0;
    reset_outside_windows();
  }

  void erase(PageId page) {
    const std::size_t pos = index_of(page);
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pos));
    read_ctr_.erase(page);
    write_ctr_.erase(page);
    reset_outside_windows();
  }

  PageId lru_victim() const { return order_.back(); }
  std::size_t size() const { return order_.size(); }

  bool in_read_window(PageId page) const {
    return index_of(page) < read_window();
  }
  bool in_write_window(PageId page) const {
    return index_of(page) < write_window();
  }
  std::uint64_t read_counter(PageId page) const { return read_ctr_.at(page); }
  std::uint64_t write_counter(PageId page) const { return write_ctr_.at(page); }

 private:
  std::size_t target(double perc) const {
    return std::min<std::size_t>(
        capacity_, static_cast<std::size_t>(
                       std::ceil(perc * static_cast<double>(capacity_))));
  }
  std::size_t read_window() const { return std::min(read_target_, size()); }
  std::size_t write_window() const { return std::min(write_target_, size()); }

  std::size_t index_of(PageId page) const {
    const auto it = std::find(order_.begin(), order_.end(), page);
    EXPECT_NE(it, order_.end());
    return static_cast<std::size_t>(it - order_.begin());
  }

  void reset_outside_windows() {
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (i >= read_window()) read_ctr_[order_[i]] = 0;
      if (i >= write_window()) write_ctr_[order_[i]] = 0;
    }
  }

  std::size_t capacity_;
  std::size_t read_target_;
  std::size_t write_target_;
  std::deque<PageId> order_;  // front = MRU
  std::unordered_map<PageId, std::uint64_t> read_ctr_;
  std::unordered_map<PageId, std::uint64_t> write_ctr_;
};

struct WindowParams {
  double read_perc;
  double write_perc;
};

class NvmQueueOracle : public ::testing::TestWithParam<WindowParams> {};

TEST_P(NvmQueueOracle, RandomOperationStreamsAgreeExactly) {
  constexpr std::size_t kCapacity = 24;
  const auto [read_perc, write_perc] = GetParam();
  CountedLruQueue queue(kCapacity, read_perc, write_perc);
  OracleQueue oracle(kCapacity, read_perc, write_perc);
  Rng rng(1234);
  std::vector<PageId> present;
  PageId next_page = 0;

  for (int step = 0; step < 30000; ++step) {
    const double op = rng.next_double();
    if (op < 0.55 && !present.empty()) {
      const PageId page = present[rng.next_below(present.size())];
      const AccessType type =
          rng.next_bool(0.4) ? AccessType::kWrite : AccessType::kRead;
      ASSERT_EQ(queue.record_hit(page, type), oracle.record_hit(page, type))
          << "step " << step;
    } else if (op < 0.85 && present.size() < kCapacity) {
      queue.insert_front(next_page);
      oracle.insert_front(next_page);
      present.push_back(next_page++);
    } else if (!present.empty()) {
      const std::size_t idx = rng.next_below(present.size());
      queue.erase(present[idx]);
      oracle.erase(present[idx]);
      present[idx] = present.back();
      present.pop_back();
    }
    ASSERT_EQ(queue.size(), oracle.size());
    if (!present.empty()) {
      ASSERT_EQ(queue.lru_victim(), oracle.lru_victim()) << "step " << step;
    }
    // Full-state comparison every few steps (it is O(n^2) in the oracle).
    if (step % 64 == 0) {
      for (PageId page : present) {
        ASSERT_EQ(queue.in_read_window(page), oracle.in_read_window(page))
            << "page " << page << " step " << step;
        ASSERT_EQ(queue.in_write_window(page), oracle.in_write_window(page))
            << "page " << page << " step " << step;
        ASSERT_EQ(queue.read_counter(page), oracle.read_counter(page))
            << "page " << page << " step " << step;
        ASSERT_EQ(queue.write_counter(page), oracle.write_counter(page))
            << "page " << page << " step " << step;
      }
      queue.check_invariants();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowShapes, NvmQueueOracle,
    ::testing::Values(WindowParams{0.10, 0.30}, WindowParams{0.05, 0.05},
                      WindowParams{0.50, 0.75}, WindowParams{1.00, 1.00},
                      WindowParams{0.0, 1.0}),
    [](const auto& param_info) {
      const auto& p = param_info.param;
      std::string name = "r";
      name += std::to_string(static_cast<int>(p.read_perc * 100));
      name += "_w";
      name += std::to_string(static_cast<int>(p.write_perc * 100));
      return name;
    });

}  // namespace
}  // namespace hymem::core
