#include "proto/directory.hh"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/rng.hh"
#include "proto/transition_table.hh"

namespace ascoma::proto {
namespace {

TEST(Directory, InitiallyUncached) {
  Directory d(16, 4);
  EXPECT_EQ(d.owner(BlockId{0}), kInvalidNode);
  EXPECT_EQ(d.sharer_count(BlockId{0}), 0u);
  EXPECT_FALSE(d.in_copyset(BlockId{0}, NodeId{0}));
}

TEST(Directory, GetsAddsSharer) {
  Directory d(16, 4);
  const auto r = d.gets(BlockId{0}, NodeId{1});
  EXPECT_FALSE(r.was_in_copyset);
  EXPECT_EQ(r.dirty_owner, kInvalidNode);
  EXPECT_TRUE(d.in_copyset(BlockId{0}, NodeId{1}));
  EXPECT_EQ(d.sharer_count(BlockId{0}), 1u);
}

TEST(Directory, RepeatGetsIsRefetchSignal) {
  Directory d(16, 4);
  d.gets(BlockId{0}, NodeId{1});
  const auto r = d.gets(BlockId{0}, NodeId{1});
  EXPECT_TRUE(r.was_in_copyset);
}

TEST(Directory, GetxInvalidatesOtherSharers) {
  Directory d(16, 4);
  d.gets(BlockId{0}, NodeId{0});
  d.gets(BlockId{0}, NodeId{1});
  d.gets(BlockId{0}, NodeId{2});
  const auto r = d.getx(BlockId{0}, NodeId{1});
  EXPECT_TRUE(r.was_in_copyset);
  EXPECT_EQ(r.dirty_owner, kInvalidNode);
  ASSERT_EQ(r.invalidate.size(), 2u);
  EXPECT_EQ(r.invalidate[0], NodeId{0});
  EXPECT_EQ(r.invalidate[1], NodeId{2});
  EXPECT_EQ(d.owner(BlockId{0}), NodeId{1});
  EXPECT_EQ(d.sharer_count(BlockId{0}), 1u);
  EXPECT_TRUE(d.in_copyset(BlockId{0}, NodeId{1}));
  d.check_entry(BlockId{0});
}

TEST(Directory, GetsAfterGetxForwardsToOwner) {
  Directory d(16, 4);
  d.getx(BlockId{0}, NodeId{2});
  const auto r = d.gets(BlockId{0}, NodeId{3});
  EXPECT_EQ(r.dirty_owner, NodeId{2});
  // Owner downgraded to sharer; home current again.
  EXPECT_EQ(d.owner(BlockId{0}), kInvalidNode);
  EXPECT_TRUE(d.in_copyset(BlockId{0}, NodeId{2}));
  EXPECT_TRUE(d.in_copyset(BlockId{0}, NodeId{3}));
  d.check_entry(BlockId{0});
}

TEST(Directory, GetxAfterGetxForwardsAndInvalidatesOwner) {
  Directory d(16, 4);
  d.getx(BlockId{0}, NodeId{2});
  const auto r = d.getx(BlockId{0}, NodeId{3});
  EXPECT_EQ(r.dirty_owner, NodeId{2});
  EXPECT_TRUE(r.invalidate.empty());  // owner handled by the forward
  EXPECT_EQ(d.owner(BlockId{0}), NodeId{3});
  EXPECT_EQ(d.sharer_count(BlockId{0}), 1u);
  d.check_entry(BlockId{0});
}

TEST(Directory, OwnerReacquiringKeepsOwnership) {
  Directory d(16, 4);
  d.getx(BlockId{0}, NodeId{2});
  const auto r = d.getx(BlockId{0}, NodeId{2});
  EXPECT_TRUE(r.was_in_copyset);
  EXPECT_EQ(r.dirty_owner, kInvalidNode);  // no self-forward
  EXPECT_TRUE(r.invalidate.empty());
  EXPECT_EQ(d.owner(BlockId{0}), NodeId{2});
}

TEST(Directory, FlushNodeRemovesFromCopyset) {
  Directory d(16, 4);
  d.gets(BlockId{0}, NodeId{1});
  d.gets(BlockId{0}, NodeId{2});
  EXPECT_FALSE(d.flush_node(BlockId{0}, NodeId{1}));  // not owner
  EXPECT_FALSE(d.in_copyset(BlockId{0}, NodeId{1}));
  EXPECT_TRUE(d.in_copyset(BlockId{0}, NodeId{2}));
}

TEST(Directory, FlushOwnerReturnsTrueAndClearsOwnership) {
  Directory d(16, 4);
  d.getx(BlockId{0}, NodeId{1});
  EXPECT_TRUE(d.flush_node(BlockId{0}, NodeId{1}));
  EXPECT_EQ(d.owner(BlockId{0}), kInvalidNode);
  EXPECT_EQ(d.sharer_count(BlockId{0}), 0u);
  d.check_entry(BlockId{0});
}

TEST(Directory, RefetchAfterFlushIsNotInCopyset) {
  Directory d(16, 4);
  d.gets(BlockId{0}, NodeId{1});
  d.flush_node(BlockId{0}, NodeId{1});
  const auto r = d.gets(BlockId{0}, NodeId{1});
  EXPECT_FALSE(r.was_in_copyset);  // flushed pages fetch cold, not refetch
}

TEST(Directory, CountsInvalidationsAndForwards) {
  Directory d(16, 4);
  d.gets(BlockId{0}, NodeId{0});
  d.gets(BlockId{0}, NodeId{1});
  d.getx(BlockId{0}, NodeId{2});  // invalidates 0 and 1
  EXPECT_EQ(d.invalidations_sent(), 2u);
  d.gets(BlockId{0}, NodeId{3});  // forward to owner 2
  EXPECT_EQ(d.forwards(), 1u);
}

TEST(Directory, IndependentBlocks) {
  Directory d(16, 4);
  d.getx(BlockId{3}, NodeId{1});
  EXPECT_EQ(d.owner(BlockId{4}), kInvalidNode);
  EXPECT_EQ(d.owner(BlockId{3}), NodeId{1});
}

TEST(Directory, RejectsTooManyNodes) {
  EXPECT_THROW(Directory(8, 65), ascoma::CheckFailure);
}

TEST(Directory, BoundsChecked) {
  Directory d(4, 2);
  EXPECT_THROW(d.gets(BlockId{4}, NodeId{0}), ascoma::CheckFailure);
  EXPECT_THROW(d.gets(BlockId{0}, NodeId{2}), ascoma::CheckFailure);
}

// The directory stores a sharer word per block and an exclusive bit per
// block, deriving the owner as the lowest sharer.  The reference keeps the
// two fields that encoding replaced — an owner and a sharer mask — and
// applies the protocol to them by hand.  Random GETS, GETX and flush steps
// must agree on every result, entry and census.
struct RefEntry {
  NodeId owner = kInvalidNode;
  std::uint64_t sharers = 0;
};

void check_against_reference(std::uint32_t nodes) {
  SCOPED_TRACE(::testing::Message() << nodes << " nodes");
  // 130 blocks span three words of the exclusive bit array; the steps
  // favour the blocks next to a word edge.
  constexpr std::uint64_t kBlocks = 130;
  const std::uint64_t hot[] = {0, 1, 63, 64, 65, 127, 128, 129};
  Directory d(kBlocks, nodes);
  std::vector<RefEntry> ref(kBlocks);
  std::uint64_t invalidations = 0, forwards = 0;
  const auto bit = [](NodeId n) { return std::uint64_t{1} << n.value(); };
  const NodeId last{nodes - 1};
  Rng rng(nodes);
  bool last_node_owned = false;
  for (int step = 0; step < 20000; ++step) {
    const BlockId b{rng.chance(0.7) ? hot[rng.below(8)] : rng.below(kBlocks)};
    // The highest node often, so a 64-node entry has node 63 as owner.
    const NodeId n = rng.chance(0.2)
                         ? last
                         : NodeId{static_cast<std::uint32_t>(rng.below(nodes))};
    RefEntry& e = ref[b.value()];
    const bool held = (e.sharers & bit(n)) != 0;
    const std::uint64_t kind = rng.below(3);
    SCOPED_TRACE(::testing::Message() << "step " << step << " kind " << kind
                                      << " block " << b << " node " << n);
    if (kind == 0) {  // GETS
      const auto r = d.gets(b, n);
      EXPECT_EQ(r.was_in_copyset, held);
      const NodeId fwd =
          e.owner != kInvalidNode && e.owner != n ? e.owner : kInvalidNode;
      EXPECT_EQ(r.dirty_owner, fwd);
      forwards += fwd != kInvalidNode ? 1 : 0;
      e.owner = kInvalidNode;
      e.sharers |= bit(n);
    } else if (kind == 1) {  // GETX
      const auto r = d.getx(b, n);
      EXPECT_EQ(r.was_in_copyset, held);
      NodeId fwd = kInvalidNode;
      std::uint64_t inval = 0;
      if (e.owner == kInvalidNode) {
        inval = e.sharers & ~bit(n);
      } else if (e.owner != n) {
        fwd = e.owner;
        ++forwards;
        ++invalidations;  // the forwarded-to owner loses its copy
      }
      EXPECT_EQ(r.dirty_owner, fwd);
      EXPECT_EQ(r.invalidate.bits(), inval);
      invalidations += static_cast<std::uint64_t>(std::popcount(inval));
      e.owner = n;
      e.sharers = bit(n);
      if (n == last) last_node_owned = true;
    } else {  // flush
      EXPECT_EQ(d.flush_node(b, n), e.owner == n);
      if (e.owner == n) e.owner = kInvalidNode;
      e.sharers &= ~bit(n);
    }
    ASSERT_EQ(d.owner(b), e.owner);
    ASSERT_EQ(d.sharer_mask(b), e.sharers);
    ASSERT_EQ(d.exclusive(b), e.owner != kInvalidNode);
    ASSERT_EQ(d.sharer_count(b),
              static_cast<std::uint32_t>(std::popcount(e.sharers)));
    d.check_entry(b);
  }
  EXPECT_TRUE(last_node_owned);
  for (BlockId b{0}; b.value() < kBlocks; ++b) {
    EXPECT_EQ(d.owner(b), ref[b.value()].owner) << "block " << b;
    EXPECT_EQ(d.sharer_mask(b), ref[b.value()].sharers) << "block " << b;
  }
  EXPECT_EQ(d.invalidations_sent(), invalidations);
  EXPECT_EQ(d.forwards(), forwards);
}

TEST(Directory, MatchesOwnerAndSharersReference) {
  for (const std::uint32_t nodes : {1u, 8u, 64u})
    check_against_reference(nodes);
}

// ---- the transition table ---------------------------------------------------

TEST(TransitionTable, TotalAndSelfConsistent) {
  const TransitionTable& t = TransitionTable::pristine();
  int fatal = 0;
  for (int s = 0; s < kNumDirStates; ++s) {
    for (int m = 0; m < kNumProtoMsgs; ++m) {
      for (int r = 0; r < kNumReqRels; ++r) {
        const Transition& row =
            t.lookup(static_cast<DirState>(s), static_cast<ProtoMsg>(m),
                     static_cast<ReqRel>(r));
        EXPECT_EQ(static_cast<int>(row.state), s);
        EXPECT_EQ(static_cast<int>(row.msg), m);
        EXPECT_EQ(static_cast<int>(row.rel), r);
        ASSERT_NE(row.why, nullptr);
        if (row.fatal()) {
          ++fatal;
          EXPECT_EQ(row.next, DirNext::kFatal);
          EXPECT_EQ(row.actions, act::kFatal)
              << "a fatal row must carry no other action bits";
        } else {
          EXPECT_NE(row.next, DirNext::kFatal);
        }
      }
    }
  }
  EXPECT_GT(fatal, 0) << "some triples are unreachable by construction";
}

}  // namespace
}  // namespace ascoma::proto
