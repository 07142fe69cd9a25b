#include "sim/scheduler.hh"

namespace ascoma::sim {

Scheduler::Scheduler(std::uint32_t nprocs)
    : ready_(nprocs, Cycle{0}),
      state_(nprocs, State::kRunnable),
      live_(nprocs) {
  ASCOMA_CHECK(nprocs > 0);
}

void Scheduler::block(ProcId p) {
  ASCOMA_CHECK(p < nprocs());
  ASCOMA_CHECK(state_[p] == State::kRunnable);
  state_[p] = State::kBlocked;
}

void Scheduler::finish(ProcId p) {
  ASCOMA_CHECK(p < nprocs());
  ASCOMA_CHECK(state_[p] != State::kDone);
  state_[p] = State::kDone;
  ASCOMA_CHECK(live_ > 0);
  --live_;
}

ProcId Scheduler::pick() const {
  ProcId best = nprocs();
  for (ProcId p = 0; p < nprocs(); ++p) {
    if (state_[p] != State::kRunnable) continue;
    if (best == nprocs() || ready_[p] < ready_[best]) best = p;
  }
  ASCOMA_CHECK_MSG(best != nprocs(),
                   "deadlock: all live processors are blocked");
  return best;
}

}  // namespace ascoma::sim
