#include "sim/resource.hh"

#include <gtest/gtest.h>

#include <type_traits>

namespace ascoma::sim {
namespace {

// A reservation writes one word: the resource is its free-at cycle alone.
static_assert(sizeof(Resource) == sizeof(Cycle));
static_assert(std::is_trivially_copyable_v<Resource>);

TEST(Resource, UncontendedStartsImmediately) {
  Resource r;
  EXPECT_EQ(r.acquire(Cycle{100}, Cycle{10}), Cycle{100});
  EXPECT_EQ(r.free_at(), Cycle{110});
}

TEST(Resource, BackToBackQueues) {
  Resource r;
  EXPECT_EQ(r.acquire(Cycle{0}, Cycle{10}), Cycle{0});
  EXPECT_EQ(r.acquire(Cycle{0}, Cycle{10}), Cycle{10});  // waits behind the first
  EXPECT_EQ(r.acquire(Cycle{5}, Cycle{10}), Cycle{20});
  EXPECT_EQ(r.free_at(), Cycle{30});
}

TEST(Resource, IdleGapResets) {
  Resource r;
  r.acquire(Cycle{0}, Cycle{10});
  EXPECT_EQ(r.acquire(Cycle{50}, Cycle{10}), Cycle{50});  // no queueing after a gap
}

TEST(Resource, AcquireUntilReturnsCompletion) {
  Resource r;
  EXPECT_EQ(r.acquire_until(Cycle{7}, Cycle{3}), Cycle{10});
  EXPECT_EQ(r.acquire_until(Cycle{0}, Cycle{5}), Cycle{15});
}

TEST(Resource, ZeroDurationIsFree) {
  Resource r;
  EXPECT_EQ(r.acquire(Cycle{5}, Cycle{0}), Cycle{5});
  EXPECT_EQ(r.free_at(), Cycle{5});
}

}  // namespace
}  // namespace ascoma::sim
