// Compile-time and runtime contract of src/common/sync.hh: the annotated
// primitives are zero-cost overlays over the std types (the attributes
// may change what clang -Wthread-safety proves, but never what the
// compiler emits), and their lock/unlock/condvar semantics match std.
//
// The static half of the contract — that no GUARDED_BY field is touched
// unlocked — cannot live in a test binary; CI's clang leg builds the whole
// tree with -Wthread-safety -Werror (see .github/workflows/ci.yml).

#include "common/sync.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "gtest/gtest.h"

namespace {

using ascoma::CondVar;
using ascoma::LockGuard;
using ascoma::Mutex;

// Zero data cost: each wrapper is exactly its std counterpart in memory.
static_assert(sizeof(Mutex) == sizeof(std::mutex));
static_assert(alignof(Mutex) == alignof(std::mutex));
static_assert(sizeof(LockGuard) == sizeof(std::lock_guard<std::mutex>));
static_assert(sizeof(CondVar) == sizeof(std::condition_variable));
static_assert(alignof(CondVar) == alignof(std::condition_variable));

// Like the std types, the wrappers pin their identity: no copies.
static_assert(!std::is_copy_constructible_v<Mutex>);
static_assert(!std::is_copy_constructible_v<LockGuard>);
static_assert(!std::is_copy_constructible_v<CondVar>);

// Zero layout cost for annotated fields: GUARDED_BY on a member changes
// neither size nor layout of the enclosing class.
struct PlainGuarded {
  Mutex mu;
  int value = 0;
};
struct AnnotatedGuarded {
  Mutex mu;
  int value ASCOMA_GUARDED_BY(mu) = 0;
};
static_assert(sizeof(AnnotatedGuarded) == sizeof(PlainGuarded));
static_assert(alignof(AnnotatedGuarded) == alignof(PlainGuarded));

// Zero signature cost: ASCOMA_REQUIRES / ASCOMA_EXCLUDES on a function do
// not change its type.
struct Api {
  Mutex mu;
  int get() ASCOMA_EXCLUDES(mu) {
    LockGuard lk(mu);
    return 1;
  }
  int get_locked() ASCOMA_REQUIRES(mu) { return 2; }
};
static_assert(std::is_same_v<decltype(&Api::get), int (Api::*)()>);
static_assert(std::is_same_v<decltype(&Api::get_locked), int (Api::*)()>);

TEST(Sync, LockGuardProvidesMutualExclusion) {
  Mutex mu;
  long counter = 0;  // guarded by mu; plain long so a race would corrupt it
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        LockGuard lk(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(Sync, CondVarWaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;  // guarded by mu
  int observed = 0;
  std::thread waiter([&] {
    LockGuard lk(mu);
    cv.wait(mu, [&] { return ready; });
    observed = 1;
  });
  {
    LockGuard lk(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_EQ(observed, 1);
}

TEST(Sync, CondVarWaitForTimesOutWhenPredicateStaysFalse) {
  Mutex mu;
  CondVar cv;
  LockGuard lk(mu);
  const bool satisfied =
      cv.wait_for(mu, std::chrono::milliseconds(10), [] { return false; });
  EXPECT_FALSE(satisfied);
}

TEST(Sync, CondVarWaitForReturnsTrueOnceNotified) {
  Mutex mu;
  CondVar cv;
  bool done = false;  // guarded by mu
  std::thread setter([&] {
    LockGuard lk(mu);
    done = true;
    cv.notify_all();
  });
  bool satisfied = false;
  {
    LockGuard lk(mu);
    satisfied = cv.wait_for(mu, std::chrono::seconds(30),
                            [&] { return done; });
  }
  setter.join();
  EXPECT_TRUE(satisfied);
}

TEST(Sync, MutexIsHeldAcrossCondVarWaitReturn) {
  // wait() must hand the lock back to the caller's LockGuard: each side
  // mutates the shared stage right after its wait() returns, still under
  // the same guard.  If ownership were dropped, TSan (and the final
  // assertion) would catch the race in this ping-pong.
  Mutex mu;
  CondVar cv;
  int stage = 0;  // guarded by mu
  std::thread bumper([&] {
    {
      LockGuard lk(mu);
      stage = 1;
    }
    cv.notify_one();
    LockGuard lk(mu);
    cv.wait(mu, [&] { return stage == 2; });
    stage = 3;
  });
  {
    LockGuard lk(mu);
    cv.wait(mu, [&] { return stage == 1; });
    stage = 2;
  }
  cv.notify_one();
  bumper.join();
  LockGuard lk(mu);
  EXPECT_EQ(stage, 3);
}

}  // namespace
