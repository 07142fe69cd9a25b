#include "proto/directory.hh"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/check.hh"
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

// A NACKed request performed no transition, so its row may neither act on
// the entry nor promise a different state.
TEST(TransitionTable, NackRowsAreNoOps) {
  const TransitionTable& t = TransitionTable::pristine();
  for (int s = 0; s < kNumDirStates; ++s) {
    for (int r = 0; r < kNumReqRels; ++r) {
      const Transition& row = t.lookup(static_cast<DirState>(s),
                                       ProtoMsg::kNack, static_cast<ReqRel>(r));
      if (row.fatal()) continue;
      EXPECT_EQ(row.actions, act::kNone)
          << to_string(row.state) << " x NACK x " << to_string(row.rel);
      EXPECT_EQ(static_cast<int>(row.next), s)
          << to_string(row.state) << " x NACK x " << to_string(row.rel);
    }
  }
}

// The same property through Directory::note_nack: from every (state,
// relation) pair the protocol can reach, a NACK leaves the entry as it was
// and is counted once.
TEST(Directory, NackLeavesEveryReachableEntryUnchanged) {
  struct Scenario {
    DirState state;
    ReqRel rel;
    NodeId requester;
  };
  // Node 0 (and node 1 when shared) hold the block; node 2 holds nothing.
  const Scenario scenarios[] = {
      {DirState::kUncached, ReqRel::kNone, NodeId{2}},
      {DirState::kShared, ReqRel::kNone, NodeId{2}},
      {DirState::kShared, ReqRel::kSharer, NodeId{0}},
      {DirState::kExclusive, ReqRel::kNone, NodeId{2}},
      {DirState::kExclusive, ReqRel::kOwner, NodeId{0}},
  };
  for (const Scenario& sc : scenarios) {
    Directory d(1, 3);
    if (sc.state == DirState::kShared) {
      d.gets(BlockId{0}, NodeId{0});
      d.gets(BlockId{0}, NodeId{1});
    } else if (sc.state == DirState::kExclusive) {
      d.getx(BlockId{0}, NodeId{0});
    }
    ASSERT_EQ(d.state_of(BlockId{0}), sc.state);
    ASSERT_EQ(d.rel_of(BlockId{0}, sc.requester), sc.rel);
    const NodeId owner = d.owner(BlockId{0});
    const std::uint64_t sharers = d.sharer_mask(BlockId{0});

    d.note_nack(BlockId{0}, sc.requester);
    EXPECT_EQ(d.owner(BlockId{0}), owner)
        << to_string(sc.state) << " x NACK x " << to_string(sc.rel);
    EXPECT_EQ(d.sharer_mask(BlockId{0}), sharers)
        << to_string(sc.state) << " x NACK x " << to_string(sc.rel);
    EXPECT_EQ(d.nacks(), 1u);
  }
}

}  // namespace
}  // namespace ascoma::proto
