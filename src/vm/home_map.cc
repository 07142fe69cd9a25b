#include "vm/home_map.hh"

#include <algorithm>

namespace ascoma::vm {

HomeMap::HomeMap(std::uint64_t total_pages, std::uint32_t nodes)
    : homes_(total_pages, kInvalidNode),
      count_(nodes, 0),
      cap_((total_pages + nodes - 1) / nodes) {
  ASCOMA_CHECK(nodes > 0);
}

NodeId HomeMap::claim(VPageId page, NodeId node) {
  ASCOMA_CHECK(page.value() < homes_.size());
  ASCOMA_CHECK(node.value() < count_.size());
  if (homes_[page] != kInvalidNode) return homes_[page];
  NodeId home = node;
  if (count_[home] >= cap_) {
    // First-touch cap reached: round-robin over nodes still under the cap.
    home = next_under_cap(rr_cursor_);
    rr_cursor_ = NodeId{(home.value() + 1) % nodes()};
  }
  homes_[page] = home;
  ++count_[home];
  return home;
}

void HomeMap::assign_contiguous() {
  const std::uint64_t total = homes_.size();
  const std::uint32_t n = nodes();
  const std::uint64_t per = (total + n - 1) / n;
  for (VPageId p{0}; p.value() < total; ++p) {
    if (homes_[p] != kInvalidNode) continue;
    const NodeId home{static_cast<std::uint32_t>(
        std::min<std::uint64_t>(p.value() / per, n - 1))};
    homes_[p] = home;
    ++count_[home];
  }
}

bool HomeMap::assigned(VPageId page) const {
  ASCOMA_CHECK(page.value() < homes_.size());
  return homes_[page] != kInvalidNode;
}

std::uint64_t HomeMap::max_home_pages() const {
  return *std::max_element(count_.begin(), count_.end());
}

NodeId HomeMap::next_under_cap(NodeId start) const {
  const std::uint32_t n = nodes();
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId cand{(start.value() + i) % n};
    if (count_[cand] < cap_) return cand;
  }
  // All nodes at cap (can only happen when total == cap * nodes exactly and
  // every page is assigned); fall back to the starting node.
  return NodeId{start.value() % n};
}

}  // namespace ascoma::vm
