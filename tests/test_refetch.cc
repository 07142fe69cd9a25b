#include "proto/refetch.hh"

#include <gtest/gtest.h>

#include "common/check.hh"

namespace ascoma::proto {
namespace {

TEST(RefetchTable, IncrementReturnsNewCount) {
  RefetchTable t(8, 4);
  EXPECT_EQ(t.increment(VPageId{0}, NodeId{1}), 1u);
  EXPECT_EQ(t.increment(VPageId{0}, NodeId{1}), 2u);
  EXPECT_EQ(t.count(VPageId{0}, NodeId{1}), 2u);
  EXPECT_EQ(t.count(VPageId{0}, NodeId{2}), 0u);
}

TEST(RefetchTable, PerPagePerNodeIsolation) {
  RefetchTable t(8, 4);
  t.increment(VPageId{3}, NodeId{2});
  EXPECT_EQ(t.count(VPageId{3}, NodeId{2}), 1u);
  EXPECT_EQ(t.count(VPageId{3}, NodeId{1}), 0u);
  EXPECT_EQ(t.count(VPageId{2}, NodeId{2}), 0u);
}

TEST(RefetchTable, ResetClearsPolicyCounterOnly) {
  RefetchTable t(8, 4);
  t.increment(VPageId{1}, NodeId{0});
  t.increment(VPageId{1}, NodeId{0});
  t.reset(VPageId{1}, NodeId{0});
  EXPECT_EQ(t.count(VPageId{1}, NodeId{0}), 0u);
  EXPECT_EQ(t.cumulative(VPageId{1}, NodeId{0}), 2u);  // census keeps history
  EXPECT_EQ(t.increment(VPageId{1}, NodeId{0}), 1u);  // counting resumes from zero
  EXPECT_EQ(t.cumulative(VPageId{1}, NodeId{0}), 3u);
}

TEST(RefetchTable, CensusPairsAtLeast) {
  RefetchTable t(4, 2);
  for (int i = 0; i < 5; ++i) t.increment(VPageId{0}, NodeId{0});
  for (int i = 0; i < 3; ++i) t.increment(VPageId{1}, NodeId{1});
  t.increment(VPageId{2}, NodeId{0});
  EXPECT_EQ(t.pairs_at_least(1), 3u);
  EXPECT_EQ(t.pairs_at_least(3), 2u);
  EXPECT_EQ(t.pairs_at_least(5), 1u);
  EXPECT_EQ(t.pairs_at_least(6), 0u);
}

TEST(RefetchTable, CensusSurvivesResets) {
  RefetchTable t(4, 2);
  for (int i = 0; i < 10; ++i) t.increment(VPageId{0}, NodeId{0});
  t.reset(VPageId{0}, NodeId{0});
  EXPECT_EQ(t.pairs_at_least(10), 1u);
}

TEST(RefetchTable, InlineCountsMatchCumulative) {
  RefetchTable t(4, 2);
  for (int i = 0; i < 3; ++i) t.increment(VPageId{1}, NodeId{1});
  t.increment(VPageId{2}, NodeId{0});
  EXPECT_EQ(t.count(VPageId{1}, NodeId{1}), t.cumulative(VPageId{1}, NodeId{1}));
  t.reset(VPageId{1}, NodeId{1});
  EXPECT_EQ(t.count(VPageId{1}, NodeId{1}), 0u);  // the policy count restarts
  EXPECT_EQ(t.increment(VPageId{1}, NodeId{1}), 1u);
  EXPECT_EQ(t.cumulative(VPageId{1}, NodeId{1}), 4u);  // the census keeps it
  EXPECT_EQ(t.pairs_at_least(1), 2u);
  EXPECT_EQ(t.pairs_at_least(4), 1u);
  EXPECT_EQ(t.count(VPageId{2}, NodeId{0}), 1u);
}

TEST(RefetchTable, BoundsChecked) {
  RefetchTable t(4, 2);
  EXPECT_THROW(t.increment(VPageId{4}, NodeId{0}), ascoma::CheckFailure);
  EXPECT_THROW(t.count(VPageId{0}, NodeId{2}), ascoma::CheckFailure);
}

}  // namespace
}  // namespace ascoma::proto
