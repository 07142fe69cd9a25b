#include "sim/scheduler.hh"

#include <string>

namespace ascoma::sim {

Scheduler::Scheduler(std::uint32_t nprocs)
    : ready_(nprocs, Cycle{0}),
      state_(nprocs, State::kRunnable),
      key_(nprocs, 0),
      live_(nprocs) {
  ASCOMA_CHECK(nprocs > 0);
}

void Scheduler::block(ProcId p) {
  ASCOMA_CHECK(p < nprocs());
  ASCOMA_CHECK(state_[p] == State::kRunnable);
  state_[p] = State::kBlocked;
  key_[p] = kNotRunnable;
}

void Scheduler::finish(ProcId p) {
  ASCOMA_CHECK(p < nprocs());
  ASCOMA_CHECK(state_[p] != State::kDone);
  state_[p] = State::kDone;
  key_[p] = kNotRunnable;
  ASCOMA_CHECK(live_ > 0);
  --live_;
}

void Scheduler::encode(store::Encoder& e) const {
  e.u64(ready_.size());
  for (const Cycle c : ready_) e.u64(c.value());
  for (const State s : state_) e.u8(static_cast<std::uint8_t>(s));
  e.u32(live_);
}

void Scheduler::decode(store::Decoder& d) {
  const std::uint64_t n = d.u64();
  if (n != ready_.size()) throw store::CodecError("scheduler size mismatch");
  for (Cycle& c : ready_) c = Cycle{d.u64()};
  std::uint32_t not_done = 0;
  for (std::size_t p = 0; p < state_.size(); ++p) {
    const std::uint8_t s = d.u8();
    if (s > static_cast<std::uint8_t>(State::kDone))
      throw store::CodecError("scheduler: unknown processor state " +
                              std::to_string(s));
    state_[p] = static_cast<State>(s);
    const bool runnable = state_[p] == State::kRunnable;
    if (runnable && ready_[p].value() == kNotRunnable)
      throw store::CodecError("scheduler: ready cycle out of range");
    key_[p] = runnable ? ready_[p].value() : kNotRunnable;
    if (state_[p] != State::kDone) ++not_done;
  }
  live_ = d.u32();
  if (live_ != not_done)
    throw store::CodecError("scheduler: live count " + std::to_string(live_) +
                            " disagrees with " + std::to_string(not_done) +
                            " unfinished processors");
}

}  // namespace ascoma::sim
