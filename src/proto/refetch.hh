#pragma once

// Per-page, per-node refetch counters (the R-NUMA mechanism the hybrids
// share): the home directory counts, for each page and each remote node, the
// number of conflict-miss refetches — requests for a block the node already
// fetched and neither flushed nor had invalidated.  Crossing the (per-node,
// possibly adaptive) threshold makes the page a relocation candidate.

#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"

namespace ascoma::proto {

class RefetchTable {
 public:
  RefetchTable(std::uint64_t total_pages, std::uint32_t nodes);

  /// Records one refetch; returns the new (resettable) count.
  std::uint32_t increment(VPageId page, NodeId node) {
    const std::size_t i = idx(page, node);
    ++cumulative_[i];
    return ++counts_[i];
  }

  /// Policy counter: reset when the page is remapped so post-remap behaviour
  /// is judged afresh.
  std::uint32_t count(VPageId page, NodeId node) const {
    return counts_[idx(page, node)];
  }

  /// Census counter: never reset (drives Table 6).
  std::uint32_t cumulative(VPageId page, NodeId node) const;

  /// Reset one page's policy counter for one node (performed on remap).
  void reset(VPageId page, NodeId node);

  /// Census for Table 6: number of (page, node) pairs with cumulative count
  /// >= threshold.
  std::uint64_t pairs_at_least(std::uint32_t threshold) const;

  std::uint64_t total_pages() const { return pages_; }
  std::uint32_t nodes() const { return nodes_; }

 private:
  std::size_t idx(VPageId page, NodeId node) const {
    ASCOMA_CHECK(page.value() < pages_ && node.value() < nodes_);
    return page.value() * nodes_ + node.value();
  }

  std::uint64_t pages_;
  std::uint32_t nodes_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> cumulative_;
};

}  // namespace ascoma::proto
