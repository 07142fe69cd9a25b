#include "sim/scheduler.hh"

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

}  // namespace ascoma::sim
