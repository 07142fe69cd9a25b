#pragma once

// Directory state for the write-invalidate, sequentially-consistent DSM
// protocol.  One entry per 128-byte coherence block; the entry lives at the
// block's home node (Figure 1's "Directory State" storage), but since homes
// never move we store all entries in one flat array indexed by global block.
//
// State encoding: `sharers` is a bitmask of nodes holding a (possibly
// partial) copy; `owner` is the node holding the block exclusive/dirty, or
// kInvalidNode when the home memory is current.  Invariant: owner valid
// implies sharers == {owner}.
//
// Transitions are not coded here: every request is resolved by looking up
// the (DirState, ProtoMsg, ReqRel) row of a TransitionTable and applying its
// action bits mechanically (apply()) against TransitionTable::pristine().

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotate.hh"
#include "common/check.hh"
#include "common/types.hh"
#include "proto/transition_table.hh"

namespace ascoma::proto {

/// A set of nodes as a 64-bit mask (the directory's native sharer
/// representation).  Returning invalidation targets this way keeps getx()
/// allocation-free on the proto_access hot path; iteration yields NodeIds
/// in ascending order, matching the old vector's push_back order, so the
/// invalidation sequence — and everything downstream of it — is unchanged.
class NodeMask {
 public:
  constexpr NodeMask() = default;
  constexpr explicit NodeMask(std::uint64_t bits) : bits_(bits) {}

  constexpr bool empty() const { return bits_ == 0; }
  constexpr std::uint32_t size() const {
    return static_cast<std::uint32_t>(std::popcount(bits_));
  }
  constexpr bool contains(NodeId n) const {
    return (bits_ >> n.value()) & 1u;
  }
  constexpr void add(NodeId n) { bits_ |= std::uint64_t{1} << n.value(); }
  constexpr std::uint64_t bits() const { return bits_; }

  /// The i-th member in ascending node order (bounds-checked).
  NodeId operator[](std::uint32_t i) const {
    ASCOMA_CHECK(i < size());
    std::uint64_t b = bits_;
    while (i-- > 0) b &= b - 1;
    return NodeId(static_cast<std::uint32_t>(std::countr_zero(b)));
  }

  /// Ascending-order iteration: `for (NodeId n : mask)`.
  class iterator {
   public:
    constexpr explicit iterator(std::uint64_t bits) : bits_(bits) {}
    NodeId operator*() const {
      return NodeId(static_cast<std::uint32_t>(std::countr_zero(bits_)));
    }
    constexpr iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    constexpr bool operator!=(const iterator& o) const {
      return bits_ != o.bits_;
    }

   private:
    std::uint64_t bits_;
  };
  constexpr iterator begin() const { return iterator{bits_}; }
  constexpr iterator end() const { return iterator{0}; }

  /// Materialize for test assertions (not for simulator paths).
  std::vector<NodeId> to_vector() const {
    std::vector<NodeId> v;
    v.reserve(size());
    for (const NodeId n : *this) v.push_back(n);
    return v;
  }

  friend constexpr bool operator==(NodeMask a, NodeMask b) = default;

 private:
  std::uint64_t bits_ = 0;
};

class Directory {
 public:
  Directory(std::uint64_t total_blocks, std::uint32_t nodes);

  struct FetchResult {
    bool was_in_copyset = false;  ///< requester held the block before this
    NodeId dirty_owner = kInvalidNode;  ///< forward target (3-hop) if set
    std::uint32_t actions = act::kNone;  ///< action bits of the applied row
    /// The applied row forwarded the request to a dirty owner.
    bool forward() const { return (actions & act::kForwardOwner) != 0; }
  };

  /// Read request (GETS).  A dirty owner (if any, other than the requester)
  /// is downgraded to sharer and its data considered written back home.
  ASCOMA_HOT_PATH FetchResult gets(BlockId b, NodeId requester);

  struct GetxResult {
    bool was_in_copyset = false;
    NodeId dirty_owner = kInvalidNode;
    std::uint32_t actions = act::kNone;
    /// Sharers (excluding requester and dirty_owner) that must be
    /// invalidated before the requester may write.
    NodeMask invalidate;
    bool forward() const { return (actions & act::kForwardOwner) != 0; }
  };

  /// Write/ownership request (GETX or upgrade).
  ASCOMA_HOT_PATH GetxResult getx(BlockId b, NodeId requester);

  /// Node flushed its copy (page remap/eviction).  Returns true if the node
  /// was the dirty owner (its writeback makes home current again).
  bool flush_node(BlockId b, NodeId node);

  bool in_copyset(BlockId b, NodeId node) const {
    ASCOMA_CHECK(b.value() < entries_.size() && node.value() < nodes_);
    return (entries_[b].sharers & bit(node)) != 0;
  }
  NodeId owner(BlockId b) const { return entries_[b].owner; }
  std::uint64_t sharer_mask(BlockId b) const { return entries_[b].sharers; }
  std::uint32_t sharer_count(BlockId b) const;

  /// Coherence state of `b`'s entry as the transition table views it.
  DirState state_of(BlockId b) const {
    ASCOMA_CHECK(b.value() < entries_.size());
    return state_of(entries_[b]);
  }
  /// `node`'s relation to `b`'s entry as the transition table views it.
  ReqRel rel_of(BlockId b, NodeId node) const {
    ASCOMA_CHECK(b.value() < entries_.size() && node.value() < nodes_);
    return rel_of(entries_[b], node);
  }

  std::uint64_t total_blocks() const { return entries_.size(); }
  std::uint32_t nodes() const { return nodes_; }

  std::uint64_t invalidations_sent() const { return invalidations_; }
  std::uint64_t forwards() const { return forwards_; }

  /// Record a NACK issued on behalf of `b`'s entry (the home refused to
  /// queue `requester`'s request — overload or injected fault).  The table's
  /// NACK rows carry no actions: a NACKed request performed no transition.
  void note_nack(BlockId b, NodeId requester);
  std::uint64_t nacks() const { return nacks_; }

  /// Human-readable entry state ("owner=2 sharers={0,2}") for watchdog dumps
  /// and invariant reports.
  std::string describe(BlockId b) const;

  /// Structural invariant check over one entry (throws CheckFailure).
  void check_entry(BlockId b) const;

 private:
  struct Entry {
    std::uint64_t sharers = 0;
    NodeId owner = kInvalidNode;
  };

  static std::uint64_t bit(NodeId n) { return std::uint64_t{1} << n.value(); }

  static DirState state_of(const Entry& e) {
    if (e.owner != kInvalidNode) return DirState::kExclusive;
    return e.sharers == 0 ? DirState::kUncached : DirState::kShared;
  }
  ReqRel rel_of(const Entry& e, NodeId node) const {
    if (e.owner == node) return ReqRel::kOwner;
    return (e.sharers & bit(node)) != 0 ? ReqRel::kSharer : ReqRel::kNone;
  }

  /// Look up the row for (`b`'s state, `msg`, requester relation), apply its
  /// action bits to the entry in declaration order (reads first), fold the
  /// invalidation/forward census, and check the resulting state against the
  /// row's `next` column.  `invalidate` (optional) collects kInvalSharers
  /// targets.  Returns the applied row.
  ASCOMA_HOT_PATH const Transition& apply(BlockId b, ProtoMsg msg,
                                          NodeId requester,
                                          NodeId* dirty_owner,
                                          NodeMask* invalidate);

  std::uint32_t nodes_;
  /// Always TransitionTable::pristine(); held so apply()'s row lookup is
  /// one pointer load.
  const TransitionTable* table_;
  IdVector<BlockId, Entry> entries_;
  std::uint64_t invalidations_ = 0;
  std::uint64_t forwards_ = 0;
  std::uint64_t nacks_ = 0;
};

// The per-request transitions (and the flush that a page remap applies to
// each of its blocks) are defined here so the protocol access and remap
// paths inline them.

inline const Transition& Directory::apply(BlockId b, ProtoMsg msg,
                                          NodeId requester,
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

inline Directory::FetchResult Directory::gets(BlockId b, NodeId requester) {
  ASCOMA_CHECK(b.value() < entries_.size() && requester.value() < nodes_);
  FetchResult r;
  r.was_in_copyset = (entries_[b].sharers & bit(requester)) != 0;
  r.actions =
      apply(b, ProtoMsg::kGetS, requester, &r.dirty_owner, nullptr).actions;
  return r;
}

inline Directory::GetxResult Directory::getx(BlockId b, NodeId requester) {
  ASCOMA_CHECK(b.value() < entries_.size() && requester.value() < nodes_);
  GetxResult r;
  r.was_in_copyset = (entries_[b].sharers & bit(requester)) != 0;
  r.actions =
      apply(b, ProtoMsg::kGetX, requester, &r.dirty_owner, &r.invalidate)
          .actions;
  return r;
}

inline bool Directory::flush_node(BlockId b, NodeId node) {
  ASCOMA_CHECK(b.value() < entries_.size() && node.value() < nodes_);
  const bool was_owner = rel_of(entries_[b], node) == ReqRel::kOwner;
  apply(b, ProtoMsg::kFlush, node, nullptr, nullptr);
  return was_owner;
}

}  // namespace ascoma::proto
