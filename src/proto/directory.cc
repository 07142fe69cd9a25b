#include "proto/directory.hh"

#include <bit>


namespace ascoma::proto {

Directory::Directory(std::uint64_t total_blocks, std::uint32_t nodes,
                     const TransitionTable* table)
    : nodes_(nodes),
      table_(table != nullptr ? table : &TransitionTable::pristine()),
      entries_(total_blocks) {
  ASCOMA_CHECK_MSG(nodes >= 1 && nodes <= 64,
                   "directory sharer mask supports up to 64 nodes");
}

const Transition& Directory::apply(BlockId b, ProtoMsg msg, NodeId requester,
                                   NodeId* dirty_owner,
                                   NodeMask* invalidate) {
  Entry& e = entries_[b];
  const Transition& t = table_->lookup(state_of(e), msg, rel_of(e, requester));
  ASCOMA_CHECK_MSG(!t.fatal(), "protocol table row declared unreachable was "
                               "hit: "
                                   << to_string(t.state) << " x "
                                   << to_string(t.msg) << " x "
                                   << to_string(t.rel) << " (" << t.why
                                   << ")");
  // Reads first: forwards and invalidations observe the pre-transition entry.
  if (t.has(act::kForwardOwner)) {
    if (dirty_owner != nullptr) *dirty_owner = e.owner;
    ++forwards_;
  }
  if (t.has(act::kInvalSharers)) {
    std::uint64_t to_inval = e.sharers & ~bit(requester);
    if (e.owner != kInvalidNode) to_inval &= ~bit(e.owner);
    if (invalidate != nullptr) *invalidate = NodeMask{to_inval};
    invalidations_ += std::popcount(to_inval);
  }
  if (t.has(act::kInvalOwner)) ++invalidations_;  // the owner also loses it
  // Then the entry rewrite.
  if (t.has(act::kClearOwner)) e.owner = kInvalidNode;
  if (t.has(act::kAddSharer)) e.sharers |= bit(requester);
  if (t.has(act::kRemoveSharer)) e.sharers &= ~bit(requester);
  if (t.has(act::kSetOwner)) {
    e.sharers = bit(requester);
    e.owner = requester;
  }
  // The table's next-state column is a checked promise, not an input.
  const DirState after = state_of(e);
  const bool next_ok =
      t.next == DirNext::kSharedOrUncached
          ? (after == DirState::kShared || after == DirState::kUncached)
          : after == static_cast<DirState>(t.next);
  ASCOMA_CHECK_MSG(next_ok, "protocol row "
                                << to_string(t.state) << " x "
                                << to_string(t.msg) << " x " << to_string(t.rel)
                                << " promised " << to_string(t.next)
                                << " but produced " << to_string(after));
  return t;
}

Directory::FetchResult Directory::gets(BlockId b, NodeId requester) {
  ASCOMA_CHECK(b.value() < entries_.size() && requester.value() < nodes_);
  FetchResult r;
  r.was_in_copyset = (entries_[b].sharers & bit(requester)) != 0;
  r.actions =
      apply(b, ProtoMsg::kGetS, requester, &r.dirty_owner, nullptr).actions;
  return r;
}

Directory::GetxResult Directory::getx(BlockId b, NodeId requester) {
  ASCOMA_CHECK(b.value() < entries_.size() && requester.value() < nodes_);
  GetxResult r;
  r.was_in_copyset = (entries_[b].sharers & bit(requester)) != 0;
  r.actions =
      apply(b, ProtoMsg::kGetX, requester, &r.dirty_owner, &r.invalidate)
          .actions;
  return r;
}

bool Directory::flush_node(BlockId b, NodeId node) {
  ASCOMA_CHECK(b.value() < entries_.size() && node.value() < nodes_);
  const bool was_owner = rel_of(entries_[b], node) == ReqRel::kOwner;
  apply(b, ProtoMsg::kFlush, node, nullptr, nullptr);
  return was_owner;
}

void Directory::note_nack(BlockId b, NodeId requester) {
  ASCOMA_CHECK(b.value() < entries_.size() && requester.value() < nodes_);
  apply(b, ProtoMsg::kNack, requester, nullptr, nullptr);
  ++nacks_;
}

bool Directory::in_copyset(BlockId b, NodeId node) const {
  ASCOMA_CHECK(b.value() < entries_.size() && node.value() < nodes_);
  return (entries_[b].sharers & bit(node)) != 0;
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
