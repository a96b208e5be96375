// Rank-based Multi-Queue hybrid policy — an OS-level rendition of RaPP
// (Ramos, Gorbatov & Bianchini, "Page placement in hybrid memory systems",
// ICS'11), one of the related works the paper cites as requiring hardware
// support (Section III). Pages are ranked by access frequency in
// Zhou-style multi-queues (level = log2(access count), with expiration
// demoting stale pages); pages ranked above a promotion level migrate to
// DRAM, displacing lower-ranked DRAM pages.
//
// Against the paper's scheme this baseline shows what frequency ranking
// buys (and costs) relative to windowed recency counters.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>

#include "policy/hybrid_policy.hpp"
#include "util/intrusive_list.hpp"

namespace hymem::policy {

/// RaPP-style rank-and-migrate hybrid.
class RankMqPolicy final : public HybridPolicy {
 public:
  /// `promote_level`: NVM pages ranked at or above this level migrate to
  /// DRAM. `lifetime`: accesses without a touch before a page's rank decays.
  RankMqPolicy(os::Vmm& vmm, unsigned promote_level = 3,
               std::uint64_t lifetime = 4096);

  std::string_view name() const override { return "rank-mq"; }
  Nanoseconds on_access(PageId page, AccessType type) override;
  Nanoseconds on_block(const AccessBlock& block) override;

  /// serve_block's step (hits are served through Vmm::access, which
  /// records them itself).
  Served serve(PageId page, std::uint64_t hash, AccessType type);

  static constexpr unsigned kLevels = 8;

  /// Rank level for an access count: floor(log2(count)), clamped.
  static unsigned level_of(std::uint64_t count);

  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }
  std::uint64_t expirations() const { return expirations_; }

 private:
  struct Node {
    PageId page = kInvalidPage;
    ListHook hook;
    std::uint64_t count = 0;
    std::uint64_t last_access = 0;
    unsigned level = 0;
    Tier tier = Tier::kNvm;
  };
  using Queue = IntrusiveList<Node, &Node::hook>;

  Queue& queue(Tier tier, unsigned level) {
    return queues_[tier == Tier::kDram ? 0 : 1][level];
  }

  /// Inserts an unlinked node at the MRU position of its (tier, level) queue.
  void enqueue(Node& node);
  /// Unlinks a node from its current (tier, level) queue if linked.
  void dequeue(Node& node);
  /// Lowest-level LRU resident of a tier, or nullptr when the tier is empty.
  Node* coldest(Tier tier);
  /// Ages one queue tail per call (round-robin lazy expiration).
  void age_step();
  /// Evicts the coldest NVM page to disk.
  void evict_coldest_nvm();
  /// Promotes an NVM node into DRAM (swapping with a colder DRAM page when
  /// DRAM is full). Returns the migration latency (0 if skipped).
  Nanoseconds try_promote(Node& node);

  unsigned promote_level_;
  std::uint64_t lifetime_;
  std::uint64_t clock_ = 0;
  unsigned age_cursor_ = 0;
  std::array<std::array<Queue, kLevels>, 2> queues_;
  std::unordered_map<PageId, std::unique_ptr<Node>> nodes_;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace hymem::policy
