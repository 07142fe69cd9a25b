#pragma once

// Cooperative processor scheduler for the discrete-event machine loop.
//
// Each simulated processor is either runnable (has a known next-ready cycle),
// blocked (waiting on a barrier or lock; it will be re-readied by whoever
// releases it), or done.  The machine repeatedly picks the runnable processor
// with the smallest next-ready cycle and executes its next operation — the
// standard conservative event loop for blocking in-order processors.
//
// pick() runs once per simulated operation, so it is a branch-free argmin
// over a dense key array: a runnable processor's key is its ready cycle, a
// blocked or done one's is kNotRunnable.  The keys are derived state that
// set_ready/block/finish maintain.

#include <cstdint>
#include <vector>

#include "common/annotate.hh"
#include "common/check.hh"
#include "common/types.hh"

namespace ascoma::sim {

using ProcId = std::uint32_t;

class Scheduler {
 public:
  explicit Scheduler(std::uint32_t nprocs);

  std::uint32_t nprocs() const { return static_cast<std::uint32_t>(ready_.size()); }

  void set_ready(ProcId p, Cycle cycle) {
    ASCOMA_CHECK(p < nprocs());
    ASCOMA_CHECK_MSG(state_[p] != State::kDone,
                     "readying a finished processor");
    ASCOMA_CHECK_MSG(cycle.value() != kNotRunnable,
                     "ready cycle collides with the not-runnable key");
    ready_[p] = cycle;
    state_[p] = State::kRunnable;
    key_[p] = cycle.value();
  }
  void block(ProcId p);
  void finish(ProcId p);

  bool is_blocked(ProcId p) const { return state_[p] == State::kBlocked; }
  bool is_done(ProcId p) const { return state_[p] == State::kDone; }
  Cycle ready_at(ProcId p) const { return ready_[p]; }

  /// Number of processors not yet done.
  std::uint32_t live() const { return live_; }
  bool all_done() const { return live_ == 0; }

  /// Picks the runnable processor with the smallest ready cycle, the lowest
  /// id on ties.  It is a deadlock (checked) for every live processor to be
  /// blocked.
  ASCOMA_HOT_PATH ProcId pick() const {
    const std::uint64_t* key = key_.data();
    std::uint64_t best_key = key[0];
    ProcId best = 0;
    for (ProcId p = 1; p < nprocs(); ++p) {
      const bool earlier = key[p] < best_key;
      best_key = earlier ? key[p] : best_key;
      best = earlier ? p : best;
    }
    ASCOMA_CHECK_MSG(best_key != kNotRunnable,
                     "deadlock: all live processors are blocked");
    return best;
  }

 private:
  enum class State : std::uint8_t { kRunnable, kBlocked, kDone };
  static constexpr std::uint64_t kNotRunnable = ~std::uint64_t{0};

  std::vector<Cycle> ready_;
  std::vector<State> state_;
  std::vector<std::uint64_t> key_;  ///< pick() keys, derived from the above
  std::uint32_t live_;
};

}  // namespace ascoma::sim
