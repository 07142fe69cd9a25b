#pragma once

// Cooperative processor scheduler for the discrete-event machine loop.
//
// Each simulated processor is either runnable (has a known next-ready cycle),
// blocked (waiting on a barrier or lock; it will be re-readied by whoever
// releases it), or done.  The machine repeatedly picks the runnable processor
// with the smallest next-ready cycle and executes its next operation — the
// standard conservative event loop for blocking in-order processors.

#include <cstdint>
#include <vector>

#include "common/annotate.hh"
#include "common/check.hh"
#include "common/types.hh"
#include "store/codec.hh"

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
    ready_[p] = cycle;
    state_[p] = State::kRunnable;
  }
  void block(ProcId p);
  void finish(ProcId p);

  bool is_blocked(ProcId p) const { return state_[p] == State::kBlocked; }
  bool is_done(ProcId p) const { return state_[p] == State::kDone; }
  Cycle ready_at(ProcId p) const { return ready_[p]; }

  /// Number of processors not yet done.
  std::uint32_t live() const { return live_; }
  bool all_done() const { return live_ == 0; }

  /// Picks the runnable processor with the smallest ready cycle.  It is a
  /// deadlock (checked) for every live processor to be blocked.
  ASCOMA_HOT_PATH ProcId pick() const;

  // Checkpoint serialization (encode/decode stay adjacent — pairing check).
  void encode(store::Encoder& e) const {
    e.u64(ready_.size());
    for (const Cycle c : ready_) e.u64(c.value());
    for (const State s : state_) e.u8(static_cast<std::uint8_t>(s));
    e.u32(live_);
  }
  void decode(store::Decoder& d) {
    const std::uint64_t n = d.u64();
    if (n != ready_.size())
      throw store::CodecError("scheduler size mismatch");
    for (Cycle& c : ready_) c = Cycle{d.u64()};
    for (State& s : state_) s = static_cast<State>(d.u8());
    live_ = d.u32();
  }

 private:
  enum class State : std::uint8_t { kRunnable, kBlocked, kDone };
  std::vector<Cycle> ready_;
  std::vector<State> state_;
  std::uint32_t live_;
};

}  // namespace ascoma::sim
