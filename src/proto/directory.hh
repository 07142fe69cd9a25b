#pragma once

// Directory state for the write-invalidate, sequentially-consistent DSM
// protocol.  One entry per 128-byte coherence block; the entry lives at the
// block's home node (Figure 1's "Directory State" storage), but since homes
// never move we store all entries in one flat array indexed by global block.
//
// State encoding: one sharer word per block, a bitmask of the nodes holding
// a (possibly partial) copy, and one exclusive bit per block in a separate
// bit array.  The exclusive bit set means one node holds the block
// exclusive/dirty and home memory is stale; that node is the entry's only
// sharer, so owner() is the lowest set bit of the sharer word and no owner
// field exists to disagree with the copyset.  Bit clear: home memory is
// current.  Exclusive with other than exactly one sharer is the one
// malformed state the encoding admits; check_entry() and the end-of-run
// sweep reject it.
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
    ASCOMA_CHECK(b.value() < sharers_.size() && node.value() < nodes_);
    return (sharers_[b] & bit(node)) != 0;
  }
  /// A node holds `b` exclusive/dirty (it is then the only sharer).
  bool exclusive(BlockId b) const {
    return ((exclusive_[b.value() >> 6] >> (b.value() & 63)) & 1u) != 0;
  }
  /// The exclusive holder of `b`, or kInvalidNode when home is current.
  NodeId owner(BlockId b) const {
    return exclusive(b) ? lowest_node(sharers_[b]) : kInvalidNode;
  }
  std::uint64_t sharer_mask(BlockId b) const { return sharers_[b]; }
  std::uint32_t sharer_count(BlockId b) const;

  /// Coherence state of `b`'s entry as the transition table views it.
  DirState state_of(BlockId b) const {
    ASCOMA_CHECK(b.value() < sharers_.size());
    return state_of(sharers_[b], exclusive(b));
  }
  /// `node`'s relation to `b`'s entry as the transition table views it.
  ReqRel rel_of(BlockId b, NodeId node) const {
    ASCOMA_CHECK(b.value() < sharers_.size() && node.value() < nodes_);
    return rel_of(sharers_[b], exclusive(b), node);
  }

  std::uint64_t total_blocks() const { return sharers_.size(); }
  std::uint32_t nodes() const { return nodes_; }

  std::uint64_t invalidations_sent() const { return invalidations_; }
  std::uint64_t forwards() const { return forwards_; }

  /// Human-readable entry state ("owner=2 sharers={0,2}") for invariant
  /// reports.
  std::string describe(BlockId b) const;

  /// Structural invariant check over one entry (throws CheckFailure).
  void check_entry(BlockId b) const;

 private:
  static std::uint64_t bit(NodeId n) { return std::uint64_t{1} << n.value(); }
  static NodeId lowest_node(std::uint64_t sharers) {
    return NodeId(static_cast<std::uint32_t>(std::countr_zero(sharers)));
  }

  static DirState state_of(std::uint64_t sharers, bool exclusive) {
    if (exclusive) return DirState::kExclusive;
    return sharers == 0 ? DirState::kUncached : DirState::kShared;
  }
  static ReqRel rel_of(std::uint64_t sharers, bool exclusive, NodeId node) {
    if ((sharers & bit(node)) == 0) return ReqRel::kNone;
    return exclusive && lowest_node(sharers) == node ? ReqRel::kOwner
                                                     : ReqRel::kSharer;
  }
  void set_exclusive(BlockId b, bool on) {
    std::uint64_t& w = exclusive_[b.value() >> 6];
    const std::uint64_t m = std::uint64_t{1} << (b.value() & 63);
    w = on ? w | m : w & ~m;
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
  IdVector<BlockId, std::uint64_t> sharers_;  ///< one sharer word per block
  std::vector<std::uint64_t> exclusive_;      ///< one bit per block
  std::uint64_t invalidations_ = 0;
  std::uint64_t forwards_ = 0;
};

// The per-request transitions (and the flush that a page remap applies to
// each of its blocks) are defined here so the protocol access and remap
// paths inline them.

inline const Transition& Directory::apply(BlockId b, ProtoMsg msg,
                                          NodeId requester,
                                          NodeId* dirty_owner,
                                          NodeMask* invalidate) {
  std::uint64_t& sharers = sharers_[b];
  const bool excl = exclusive(b);
  const Transition& t = table_->lookup(state_of(sharers, excl), msg,
                                       rel_of(sharers, excl, requester));
  ASCOMA_CHECK_MSG(!t.fatal(), "protocol table row declared unreachable was "
                               "hit: "
                                   << to_string(t.state) << " x "
                                   << to_string(t.msg) << " x "
                                   << to_string(t.rel) << " (" << t.why
                                   << ")");
  // Reads first: forwards and invalidations observe the pre-transition entry.
  if (t.has(act::kForwardOwner)) {
    if (dirty_owner != nullptr)
      *dirty_owner = excl ? lowest_node(sharers) : kInvalidNode;
    ++forwards_;
  }
  if (t.has(act::kInvalSharers)) {
    // Every sharer but the requester and the owner (the lowest sharer bit
    // of an exclusive entry).
    std::uint64_t to_inval = sharers & ~bit(requester);
    if (excl) to_inval &= sharers - 1;
    if (invalidate != nullptr) *invalidate = NodeMask{to_inval};
    invalidations_ += std::popcount(to_inval);
  }
  if (t.has(act::kInvalOwner)) ++invalidations_;  // the owner also loses it
  // Then the entry rewrite.
  if (t.has(act::kClearOwner)) set_exclusive(b, false);
  if (t.has(act::kAddSharer)) sharers |= bit(requester);
  if (t.has(act::kRemoveSharer)) sharers &= ~bit(requester);
  if (t.has(act::kSetOwner)) {
    sharers = bit(requester);
    set_exclusive(b, true);
  }
  // The table's next-state column is a checked promise, not an input.
  const DirState after = state_of(sharers, exclusive(b));
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
  ASCOMA_CHECK(b.value() < sharers_.size() && requester.value() < nodes_);
  FetchResult r;
  r.was_in_copyset = (sharers_[b] & bit(requester)) != 0;
  r.actions =
      apply(b, ProtoMsg::kGetS, requester, &r.dirty_owner, nullptr).actions;
  return r;
}

inline Directory::GetxResult Directory::getx(BlockId b, NodeId requester) {
  ASCOMA_CHECK(b.value() < sharers_.size() && requester.value() < nodes_);
  GetxResult r;
  r.was_in_copyset = (sharers_[b] & bit(requester)) != 0;
  r.actions =
      apply(b, ProtoMsg::kGetX, requester, &r.dirty_owner, &r.invalidate)
          .actions;
  return r;
}

inline bool Directory::flush_node(BlockId b, NodeId node) {
  ASCOMA_CHECK(b.value() < sharers_.size() && node.value() < nodes_);
  const bool was_owner =
      rel_of(sharers_[b], exclusive(b), node) == ReqRel::kOwner;
  apply(b, ProtoMsg::kFlush, node, nullptr, nullptr);
  return was_owner;
}

}  // namespace ascoma::proto
