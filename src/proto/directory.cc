#include "proto/directory.hh"

#include <bit>


namespace ascoma::proto {

Directory::Directory(std::uint64_t total_blocks, std::uint32_t nodes)
    : nodes_(nodes),
      table_(&TransitionTable::pristine()),
      entries_(total_blocks) {
  ASCOMA_CHECK_MSG(nodes >= 1 && nodes <= 64,
                   "directory sharer mask supports up to 64 nodes");
}

void Directory::note_nack(BlockId b, NodeId requester) {
  ASCOMA_CHECK(b.value() < entries_.size() && requester.value() < nodes_);
  apply(b, ProtoMsg::kNack, requester, nullptr, nullptr);
  ++nacks_;
}

std::uint32_t Directory::sharer_count(BlockId b) const {
  ASCOMA_CHECK(b.value() < entries_.size());
  return static_cast<std::uint32_t>(std::popcount(entries_[b].sharers));
}

std::string Directory::describe(BlockId b) const {
  ASCOMA_CHECK(b.value() < entries_.size());
  const Entry& e = entries_[b];
  std::string out = "owner=";
  out += e.owner == kInvalidNode ? "-" : std::to_string(e.owner.value());
  out += " sharers={";
  bool first = true;
  for (NodeId n{0}; n.value() < nodes_; ++n) {
    if ((e.sharers & bit(n)) == 0) continue;
    if (!first) out += ',';
    out += std::to_string(n.value());
    first = false;
  }
  out += '}';
  return out;
}

void Directory::check_entry(BlockId b) const {
  ASCOMA_CHECK(b.value() < entries_.size());
  const Entry& e = entries_[b];
  if (e.owner != kInvalidNode) {
    ASCOMA_CHECK_MSG(e.owner.value() < nodes_, "owner out of range");
    ASCOMA_CHECK_MSG(e.sharers == bit(e.owner),
                     "exclusive block must have exactly its owner as sharer");
  }
  ASCOMA_CHECK_MSG((e.sharers >> nodes_) == 0, "sharer bit beyond node count");
}

}  // namespace ascoma::proto
