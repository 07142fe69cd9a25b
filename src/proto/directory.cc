#include "proto/directory.hh"

#include <bit>

#include "common/config.hh"

namespace ascoma::proto {

// One sharer bit per node in a u64 sharer word.
static_assert(MachineConfig::kMaxNodes <= 64);

Directory::Directory(std::uint64_t total_blocks, std::uint32_t nodes)
    : nodes_(nodes),
      table_(&TransitionTable::pristine()),
      sharers_(total_blocks),
      exclusive_((total_blocks + 63) / 64) {
  ASCOMA_CHECK_MSG(nodes >= 1 && nodes <= MachineConfig::kMaxNodes,
                   "directory sharer mask supports up to "
                       << MachineConfig::kMaxNodes << " nodes");
}

void Directory::note_nack(BlockId b, NodeId requester) {
  ASCOMA_CHECK(b.value() < sharers_.size() && requester.value() < nodes_);
  apply(b, ProtoMsg::kNack, requester, nullptr, nullptr);
  ++nacks_;
}

std::uint32_t Directory::sharer_count(BlockId b) const {
  ASCOMA_CHECK(b.value() < sharers_.size());
  return static_cast<std::uint32_t>(std::popcount(sharers_[b]));
}

std::string Directory::describe(BlockId b) const {
  ASCOMA_CHECK(b.value() < sharers_.size());
  const std::uint64_t sharers = sharers_[b];
  std::string out = "owner=";
  out += exclusive(b) ? std::to_string(owner(b).value()) : "-";
  out += " sharers={";
  bool first = true;
  for (NodeId n{0}; n.value() < nodes_; ++n) {
    if ((sharers & bit(n)) == 0) continue;
    if (!first) out += ',';
    out += std::to_string(n.value());
    first = false;
  }
  out += '}';
  return out;
}

void Directory::check_entry(BlockId b) const {
  ASCOMA_CHECK(b.value() < sharers_.size());
  const std::uint64_t sharers = sharers_[b];
  // The owner is the lowest sharer bit, so an in-range copyset keeps it in
  // range and one sharer makes the copyset exactly the owner.
  ASCOMA_CHECK_MSG(nodes_ == 64 || (sharers >> nodes_) == 0,
                   "sharer bit beyond node count");
  if (exclusive(b))
    ASCOMA_CHECK_MSG(std::has_single_bit(sharers),
                     "exclusive block must have exactly one sharer");
}

}  // namespace ascoma::proto
