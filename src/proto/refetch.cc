#include "proto/refetch.hh"

namespace ascoma::proto {

RefetchTable::RefetchTable(std::uint64_t total_pages, std::uint32_t nodes)
    : pages_(total_pages),
      nodes_(nodes),
      counts_(total_pages * nodes, 0),
      cumulative_(total_pages * nodes, 0) {}

std::uint32_t RefetchTable::cumulative(VPageId page, NodeId node) const {
  return cumulative_[idx(page, node)];
}

void RefetchTable::reset(VPageId page, NodeId node) {
  counts_[idx(page, node)] = 0;
}

std::uint64_t RefetchTable::pairs_at_least(std::uint32_t threshold) const {
  std::uint64_t n = 0;
  for (std::uint32_t c : cumulative_)
    if (c >= threshold) ++n;
  return n;
}

}  // namespace ascoma::proto
