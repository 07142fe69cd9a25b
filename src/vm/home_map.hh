#pragma once

// Home-node assignment for shared pages.  The paper extends first-touch
// allocation with a per-node cap: each node may be home to at most its
// proportional share of pages; once a node hits the cap, its remaining
// first-touch claims are assigned round-robin to nodes below the cap.

#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"

namespace ascoma::vm {

class HomeMap {
 public:
  /// `total_pages` shared pages distributed over `nodes` nodes with a cap of
  /// ceil(total/nodes) home pages per node.
  HomeMap(std::uint64_t total_pages, std::uint32_t nodes);

  /// First-touch claim: `node` touched `page` first.  Assigns the home
  /// (honouring the cap) if not yet assigned.  Returns the home.
  NodeId claim(VPageId page, NodeId node);

  /// Directly assign contiguous per-node partitions (the layout the paper's
  /// SPMD programs produce anyway); used by workloads that declare layout.
  void assign_contiguous();

  bool assigned(VPageId page) const;
  NodeId home_of(VPageId page) const {
    ASCOMA_CHECK(page.value() < homes_.size());
    ASCOMA_CHECK_MSG(homes_[page] != kInvalidNode, "home_of unassigned page");
    return homes_[page];
  }
  std::uint64_t home_pages(NodeId node) const { return count_[node]; }
  std::uint64_t max_home_pages() const;
  std::uint64_t total_pages() const { return homes_.size(); }
  std::uint32_t nodes() const { return static_cast<std::uint32_t>(count_.size()); }

 private:
  NodeId next_under_cap(NodeId start) const;

  IdVector<PageId, NodeId> homes_;
  IdVector<NodeId, std::uint64_t> count_;
  std::uint64_t cap_;
  NodeId rr_cursor_{0};
};

}  // namespace ascoma::vm
