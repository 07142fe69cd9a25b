#include "sim/scheduler.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/rng.hh"
#include "store/codec.hh"

namespace ascoma::sim {
namespace {

TEST(Scheduler, PicksSmallestReadyCycle) {
  Scheduler s(3);
  s.set_ready(0, Cycle{30});
  s.set_ready(1, Cycle{10});
  s.set_ready(2, Cycle{20});
  EXPECT_EQ(s.pick(), 1u);
}

TEST(Scheduler, TiesGoToLowestId) {
  Scheduler s(3);
  s.set_ready(0, Cycle{5});
  s.set_ready(1, Cycle{5});
  s.set_ready(2, Cycle{5});
  EXPECT_EQ(s.pick(), 0u);
}

TEST(Scheduler, BlockedProcessorsAreSkipped) {
  Scheduler s(2);
  s.set_ready(0, Cycle{1});
  s.set_ready(1, Cycle{2});
  s.block(0);
  EXPECT_EQ(s.pick(), 1u);
  EXPECT_TRUE(s.is_blocked(0));
  s.set_ready(0, Cycle{0});  // unblocks
  EXPECT_FALSE(s.is_blocked(0));
  EXPECT_EQ(s.pick(), 0u);
}

TEST(Scheduler, FinishRemovesFromLiveSet) {
  Scheduler s(2);
  EXPECT_EQ(s.live(), 2u);
  s.finish(0);
  EXPECT_EQ(s.live(), 1u);
  EXPECT_TRUE(s.is_done(0));
  EXPECT_EQ(s.pick(), 1u);
  s.finish(1);
  EXPECT_TRUE(s.all_done());
}

TEST(Scheduler, DeadlockDetected) {
  Scheduler s(2);
  s.block(0);
  s.block(1);
  EXPECT_THROW(s.pick(), CheckFailure);
}

TEST(Scheduler, ReadyingFinishedProcessorThrows) {
  Scheduler s(1);
  s.finish(0);
  EXPECT_THROW(s.set_ready(0, Cycle{5}), CheckFailure);
}

TEST(Scheduler, DoubleFinishThrows) {
  Scheduler s(1);
  s.finish(0);
  EXPECT_THROW(s.finish(0), CheckFailure);
}

TEST(Scheduler, ReadyAtRoundTrips) {
  Scheduler s(1);
  s.set_ready(0, Cycle{12345});
  EXPECT_EQ(s.ready_at(0), Cycle{12345});
}

// The pre-key-array scheduler: a linear scan over explicit states, lowest id
// on ties.  pick() must agree with it after every operation.
class ReferenceScheduler {
 public:
  enum class State { kRunnable, kBlocked, kDone };
  explicit ReferenceScheduler(std::uint32_t n)
      : ready(n, Cycle{0}), state(n, State::kRunnable) {}

  /// The runnable proc with the smallest ready cycle, or -1 (deadlock).
  int pick() const {
    int best = -1;
    for (std::size_t p = 0; p < state.size(); ++p) {
      if (state[p] != State::kRunnable) continue;
      if (best < 0 || ready[p] < ready[static_cast<std::size_t>(best)])
        best = static_cast<int>(p);
    }
    return best;
  }
  /// Runnable procs sharing the smallest ready cycle.
  int tied() const {
    const int best = pick();
    int n = 0;
    for (std::size_t p = 0; p < state.size(); ++p)
      n += best >= 0 && state[p] == State::kRunnable &&
           ready[p] == ready[static_cast<std::size_t>(best)];
    return n;
  }

  std::vector<Cycle> ready;
  std::vector<State> state;
};

TEST(Scheduler, MatchesReferenceModel) {
  using State = ReferenceScheduler::State;
  for (const std::uint32_t nprocs : {1u, 5u, 8u, 64u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "procs " << nprocs << " seed " << seed);
      Scheduler s(nprocs);
      ReferenceScheduler ref(nprocs);
      Rng rng(seed, nprocs);
      std::uint64_t clock = 0;
      int ties = 0;
      int deadlocks = 0;
      for (int step = 0; step < 4000; ++step) {
        const auto p = static_cast<ProcId>(rng.below(nprocs));
        const std::uint64_t op = rng.below(100);
        if (op < 60) {
          // Few distinct cycles near the clock, so ties are common.
          if (ref.state[p] != State::kDone) {
            const Cycle c{clock + rng.below(4)};
            s.set_ready(p, c);
            ref.ready[p] = c;
            ref.state[p] = State::kRunnable;
          }
        } else if (op < 90) {
          if (ref.state[p] == State::kRunnable) {
            s.block(p);
            ref.state[p] = State::kBlocked;
          }
        } else if (op < 95) {
          // A barrier: every runnable proc blocks, so the machine is
          // deadlocked until something is readied again.
          for (ProcId q = 0; q < nprocs; ++q)
            if (ref.state[q] == State::kRunnable) {
              s.block(q);
              ref.state[q] = State::kBlocked;
            }
        } else if (op < 96 && ref.state[p] != State::kDone) {
          s.finish(p);
          ref.state[p] = State::kDone;
        }

        std::uint32_t live = 0;
        for (ProcId q = 0; q < nprocs; ++q) {
          live += ref.state[q] != State::kDone;
          ASSERT_EQ(s.is_blocked(q), ref.state[q] == State::kBlocked);
          ASSERT_EQ(s.is_done(q), ref.state[q] == State::kDone);
          ASSERT_EQ(s.ready_at(q), ref.ready[q]);
        }
        ASSERT_EQ(s.live(), live);
        const int want = ref.pick();
        if (want < 0) {
          EXPECT_THROW(s.pick(), CheckFailure) << "step " << step;
          ++deadlocks;
        } else {
          ASSERT_EQ(s.pick(), static_cast<ProcId>(want)) << "step " << step;
          ties += ref.tied() > 1;
          clock = ref.ready[static_cast<std::size_t>(want)].value();
        }
      }
      EXPECT_GT(deadlocks, 0);
      if (nprocs > 1) {
        EXPECT_GT(ties, 0);
      }
    }
  }
}

/// Encodes `s` and returns the byte buffer.
std::vector<std::uint8_t> encoded(const Scheduler& s) {
  store::Encoder e;
  s.encode(e);
  return e.bytes();
}

TEST(Scheduler, DecodeRejectsCorruptState) {
  Scheduler s(3);
  s.set_ready(1, Cycle{7});
  s.block(2);
  const std::vector<std::uint8_t> good = encoded(s);
  // Layout: u64 count, 3 x u64 ready, 3 x u8 state, u32 live.
  const std::size_t state_at = 8 + 3 * 8;
  const std::size_t live_at = state_at + 3;
  {
    Scheduler t(3);
    store::Decoder d(good);
    EXPECT_NO_THROW(t.decode(d));
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[state_at + 1] = 3;  // no such state
    Scheduler t(3);
    store::Decoder d(bad);
    EXPECT_THROW(t.decode(d), store::CodecError);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[live_at] = 2;  // three unfinished procs
    Scheduler t(3);
    store::Decoder d(bad);
    EXPECT_THROW(t.decode(d), store::CodecError);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[state_at] = 2;  // proc 0 done, but live still says 3
    Scheduler t(3);
    store::Decoder d(bad);
    EXPECT_THROW(t.decode(d), store::CodecError);
  }
  {
    std::vector<std::uint8_t> bad = good;
    for (std::size_t i = 8; i < 16; ++i) bad[i] = 0xFF;  // runnable proc 0
    Scheduler t(3);                                       // at the ~0 key
    store::Decoder d(bad);
    EXPECT_THROW(t.decode(d), store::CodecError);
  }
}

TEST(Scheduler, DecodeRebuildsPickOrder) {
  Scheduler s(4);
  s.set_ready(0, Cycle{50});
  s.set_ready(1, Cycle{5});  // earliest, but blocked below
  s.set_ready(2, Cycle{20});
  s.set_ready(3, Cycle{20});
  s.block(1);
  s.finish(0);
  const std::vector<std::uint8_t> bytes = encoded(s);

  Scheduler t(4);  // fresh: every proc runnable at cycle 0
  store::Decoder d(bytes);
  t.decode(d);
  EXPECT_EQ(encoded(t), bytes);
  EXPECT_EQ(t.live(), 3u);
  EXPECT_EQ(t.pick(), 2u);  // proc 1's stale cycle 5 and done proc 0 ignored
  t.set_ready(2, Cycle{30});
  EXPECT_EQ(t.pick(), 3u);
  t.set_ready(1, Cycle{15});
  EXPECT_EQ(t.pick(), 1u);
  t.block(1);
  t.block(2);
  t.block(3);
  EXPECT_THROW(t.pick(), CheckFailure);
}

}  // namespace
}  // namespace ascoma::sim
