#include "vm/pageout_daemon.hh"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "vm/page_cache.hh"
#include "vm/page_table.hh"

namespace ascoma::vm {
namespace {

// Test handler that performs the minimal bookkeeping a real eviction does.
class TestEvictor : public EvictionHandler {
 public:
  TestEvictor(PageCache* cache, PageTable* pt) : cache_(cache), pt_(pt) {}
  bool evict(VPageId page) override {
    evicted.push_back(page);
    const FrameId f = pt_->frame(page);
    pt_->unmap(page);
    cache_->remove_active(page);
    cache_->release(f);
    return true;
  }
  std::vector<VPageId> evicted;

 private:
  PageCache* cache_;
  PageTable* pt_;
};

struct Fixture {
  Fixture(std::uint32_t capacity, std::uint32_t mapped)
      : cache(capacity), pt(64), evictor(&cache, &pt) {
    for (VPageId p{0}; p.value() < mapped; ++p) {
      const FrameId f = *cache.alloc();
      pt.map_scoma(p, f);
      cache.add_active(p);
    }
  }
  PageCache cache;
  PageTable pt;
  TestEvictor evictor;
};

TEST(PageoutDaemon, ShouldRunBelowFreeMin) {
  Fixture f(4, 3);  // 1 free frame
  PageoutDaemon d(2, 3);
  EXPECT_TRUE(d.should_run(f.cache));
  f.evictor.evict(VPageId{0});  // 2 free now
  EXPECT_FALSE(d.should_run(f.cache));
}

TEST(PageoutDaemon, EvictsColdPagesToTarget) {
  Fixture f(8, 8);  // 0 free
  PageoutDaemon d(2, 3);
  const auto r = d.run(f.cache, f.pt, f.evictor);
  EXPECT_TRUE(r.met_target);
  EXPECT_EQ(r.reclaimed, 3u);
  EXPECT_EQ(f.cache.free_frames(), 3u);
  // FIFO since everything was cold.
  EXPECT_EQ(f.evictor.evicted, (std::vector<VPageId>{VPageId{0}, VPageId{1}, VPageId{2}}));
}

TEST(PageoutDaemon, SecondChanceSkipsReferencedOnce) {
  Fixture f(4, 4);
  f.pt.set_ref_bit(VPageId{0});
  f.pt.set_ref_bit(VPageId{1});
  PageoutDaemon d(1, 2);
  const auto r = d.run(f.cache, f.pt, f.evictor);
  EXPECT_TRUE(r.met_target);
  // Pages 0 and 1 were referenced: cleared and skipped; 2 and 3 evicted.
  EXPECT_EQ(f.evictor.evicted, (std::vector<VPageId>{VPageId{2}, VPageId{3}}));
  EXPECT_FALSE(f.pt.ref_bit(VPageId{0}));
  EXPECT_FALSE(f.pt.ref_bit(VPageId{1}));
}

TEST(PageoutDaemon, EvictsReferencedPagesOnSecondPass) {
  Fixture f(2, 2);
  f.pt.set_ref_bit(VPageId{0});
  f.pt.set_ref_bit(VPageId{1});
  PageoutDaemon d(1, 1);
  const auto r = d.run(f.cache, f.pt, f.evictor);
  // First pass clears both bits; second pass evicts one.  The first pass
  // found no cold page, so the run is a failure (paper §3).
  EXPECT_FALSE(r.met_target);
  EXPECT_EQ(r.reclaimed, 1u);
  EXPECT_GE(r.scanned, 3u);
  EXPECT_EQ(f.evictor.evicted, (std::vector<VPageId>{VPageId{0}}));
}

TEST(PageoutDaemon, FirstPassReachingFreeMinMeetsTarget) {
  Fixture f(4, 4);  // 0 free
  f.pt.set_ref_bit(VPageId{0});
  f.pt.set_ref_bit(VPageId{1});
  f.pt.set_ref_bit(VPageId{2});
  PageoutDaemon d(1, 2);
  const auto r = d.run(f.cache, f.pt, f.evictor);
  // The first pass evicts cold page 3 (free_min reached); the second pass
  // then evicts the just-cleared page 0 to reach free_target.
  EXPECT_TRUE(r.met_target);
  EXPECT_EQ(r.reclaimed, 2u);
  EXPECT_EQ(f.evictor.evicted, (std::vector<VPageId>{VPageId{3}, VPageId{0}}));
}

TEST(PageoutDaemon, ReportsFailureWhenNothingToEvict) {
  PageCache cache(4);
  PageTable pt(8);
  TestEvictor ev(&cache, &pt);
  // Drain the pool without creating S-COMA pages (e.g. all frames wired).
  cache.alloc();
  cache.alloc();
  cache.alloc();
  cache.alloc();
  PageoutDaemon d(1, 2);
  const auto r = d.run(cache, pt, ev);
  EXPECT_FALSE(r.met_target);
  EXPECT_EQ(r.reclaimed, 0u);
}

TEST(PageoutDaemon, CountsColdPagesSeen) {
  Fixture f(8, 8);
  f.pt.set_ref_bit(VPageId{7});
  PageoutDaemon d(1, 2);
  const auto r = d.run(f.cache, f.pt, f.evictor);
  EXPECT_EQ(r.scanned, r.reclaimed);  // every page seen was cold
  EXPECT_TRUE(r.met_target);
}

TEST(PageoutDaemon, MetTargetOnlyByReclaiming) {
  // The daemon runs only below free_min, and only an eviction returns a
  // frame, so a run that meets its target has reclaimed at least the
  // shortfall it started with: AS-COMA's relaxation needs no separate
  // cold-page evidence.
  Rng rng(7);
  int met = 0;
  int missed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto capacity = static_cast<std::uint32_t>(2 + rng.below(15));
    const auto free_min = static_cast<std::uint32_t>(1 + rng.below(capacity));
    const auto free_target = static_cast<std::uint32_t>(
        free_min + rng.below(capacity - free_min + 1));
    const auto free_at_entry = static_cast<std::uint32_t>(rng.below(free_min));
    Fixture f(capacity, capacity - free_at_entry);
    std::vector<bool> wired(capacity);
    for (VPageId p{0}; p.value() < capacity - free_at_entry; ++p) {
      if (rng.below(2) != 0) f.pt.set_ref_bit(p);
      wired[p.value()] = rng.below(4) == 0;
    }
    struct Refusing : EvictionHandler {
      TestEvictor* inner;
      const std::vector<bool>* wired;
      bool evict(VPageId page) override {
        return !(*wired)[page.value()] && inner->evict(page);
      }
    } handler;
    handler.inner = &f.evictor;
    handler.wired = &wired;
    PageoutDaemon d(free_min, free_target);
    ASSERT_TRUE(d.should_run(f.cache));
    const auto r = d.run(f.cache, f.pt, handler);
    if (r.met_target) {
      ++met;
      EXPECT_GE(r.reclaimed, free_min - free_at_entry) << "trial " << trial;
    } else {
      ++missed;
    }
  }
  EXPECT_GT(met, 0);  // both verdicts occur, so the implication is tested
  EXPECT_GT(missed, 0);
}

TEST(PageoutDaemon, NoWorkWhenAlreadyAboveTarget) {
  Fixture f(8, 4);  // 4 free
  PageoutDaemon d(1, 3);
  const auto r = d.run(f.cache, f.pt, f.evictor);
  EXPECT_TRUE(r.met_target);
  EXPECT_EQ(r.scanned, 0u);
  EXPECT_EQ(r.reclaimed, 0u);
}

TEST(PageoutDaemon, WatermarkAccessors) {
  PageoutDaemon d(3, 9);
  EXPECT_EQ(d.free_min(), 3u);
  EXPECT_EQ(d.free_target(), 9u);
}

}  // namespace
}  // namespace ascoma::vm
