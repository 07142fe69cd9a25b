#include "vm/page_cache.hh"

#include <gtest/gtest.h>

#include <set>

#include "common/check.hh"
#include "core/host.hh"

namespace ascoma::vm {
namespace {

TEST(PageCache, AllocHandsOutDistinctFrames) {
  PageCache c(3);
  std::set<FrameId> seen;
  for (int i = 0; i < 3; ++i) {
    auto f = c.alloc();
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(seen.insert(*f).second);
    EXPECT_LT(*f, FrameId{3});
  }
  EXPECT_FALSE(c.alloc().has_value());  // drained
  EXPECT_EQ(c.free_frames(), 0u);
}

TEST(PageCache, AllocIsDeterministicLowestFirst) {
  PageCache c(3);
  EXPECT_EQ(*c.alloc(), FrameId{0});
  EXPECT_EQ(*c.alloc(), FrameId{1});
  EXPECT_EQ(*c.alloc(), FrameId{2});
}

TEST(PageCache, ReleaseRecycles) {
  PageCache c(2);
  const FrameId a = *c.alloc();
  c.alloc();
  c.release(a);
  EXPECT_EQ(c.free_frames(), 1u);
  EXPECT_EQ(*c.alloc(), a);
}

TEST(PageCache, OverReleaseThrows) {
  PageCache c(1);
  const FrameId f = *c.alloc();
  c.release(f);
  EXPECT_THROW(c.release(f), ascoma::CheckFailure);
}

TEST(PageCache, ReleaseOutOfRangeThrows) {
  PageCache c(2);
  EXPECT_THROW(c.release(FrameId{5}), ascoma::CheckFailure);
}

TEST(PageCache, ActiveListAndRotation) {
  PageCache c(4);
  c.add_active(VPageId{10});
  c.add_active(VPageId{20});
  c.add_active(VPageId{30});
  EXPECT_EQ(c.active_pages(), 3u);
  EXPECT_EQ(*c.rotate(), VPageId{10});
  EXPECT_EQ(*c.rotate(), VPageId{20});
  EXPECT_EQ(*c.rotate(), VPageId{30});
  EXPECT_EQ(*c.rotate(), VPageId{10});  // wraps (clock)
}

TEST(PageCache, RemoveActiveSkipsStaleClockEntries) {
  PageCache c(4);
  c.add_active(VPageId{10});
  c.add_active(VPageId{20});
  c.remove_active(VPageId{10});
  EXPECT_EQ(c.active_pages(), 1u);
  EXPECT_FALSE(c.is_active(VPageId{10}));
  EXPECT_EQ(*c.rotate(), VPageId{20});
  EXPECT_EQ(*c.rotate(), VPageId{20});  // 10 never reappears
}

TEST(PageCache, ReAddedPageHasOneClockEntry) {
  PageCache c(4);
  c.add_active(VPageId{10});
  c.add_active(VPageId{20});
  // 10 leaves and comes back before its old clock entry is rotated out.
  c.remove_active(VPageId{10});
  c.add_active(VPageId{10});
  EXPECT_EQ(*c.rotate(), VPageId{20});
  EXPECT_EQ(*c.rotate(), VPageId{10});
  EXPECT_EQ(*c.rotate(), VPageId{20});  // one lap: 10 came up once
  EXPECT_EQ(*c.rotate(), VPageId{10});
}

TEST(PageCache, RotateEmptyReturnsNothing) {
  PageCache c(4);
  EXPECT_FALSE(c.rotate().has_value());
  c.add_active(VPageId{1});
  c.remove_active(VPageId{1});
  EXPECT_FALSE(c.rotate().has_value());
}

TEST(PageCache, DoubleAddThrows) {
  PageCache c(2);
  c.add_active(VPageId{5});
  EXPECT_THROW(c.add_active(VPageId{5}), ascoma::CheckFailure);
}

TEST(PageCache, RemoveInactiveThrows) {
  PageCache c(2);
  EXPECT_THROW(c.remove_active(VPageId{5}), ascoma::CheckFailure);
}

TEST(PageCache, ReAddAfterRemoveWorks) {
  PageCache c(2);
  c.add_active(VPageId{5});
  c.remove_active(VPageId{5});
  c.add_active(VPageId{5});
  EXPECT_TRUE(c.is_active(VPageId{5}));
  EXPECT_EQ(*c.rotate(), VPageId{5});
}

// The clock is a ring that grows only when full: the hand going round a
// full clock never touches the heap, and growth keeps the FIFO order.
TEST(PageCache, RotatingAFullClockAllocatesNothing) {
  if (!core::alloc_hook_active()) GTEST_SKIP() << "alloc hook compiled out";
  constexpr std::uint64_t kPages = 64;
  PageCache c(kPages);
  for (std::uint64_t p = 0; p < kPages; ++p) c.add_active(VPageId{p});
  const std::uint64_t before = core::thread_alloc_count();
  std::uint64_t out_of_order = 0;
  for (std::uint64_t i = 0; i < 1000; ++i)
    if (c.rotate() != VPageId{i % kPages}) ++out_of_order;
  EXPECT_EQ(core::thread_alloc_count(), before);
  EXPECT_EQ(out_of_order, 0u);
}

TEST(PageCache, ZeroCapacity) {
  PageCache c(0);
  EXPECT_EQ(c.capacity(), 0u);
  EXPECT_FALSE(c.alloc().has_value());
}

}  // namespace
}  // namespace ascoma::vm
