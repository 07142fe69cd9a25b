#pragma once

// Busy-until contention model.
//
// Every contended hardware unit (bus, DRAM bank, DSM controller, network
// input port) is a Resource.  A transaction reserves the resource for a
// duration starting no earlier than `now`; if the resource is still busy the
// transaction is delayed until it frees.  This is the classic queueing
// approximation used by occupancy-based architecture simulators and matches
// the paper's statement that (for the network) "port contention (only)" is
// modeled.
//
// A Resource is one word: the cycle it next becomes free.  Queueing delay is
// read from the probe's critical-path attribution (ARCHITECTURE.md §1), not
// from per-resource counters, so a reservation writes nothing else.

#include "common/types.hh"

namespace ascoma::sim {

class Resource {
 public:
  /// Reserves the resource for `duration` cycles starting at or after `now`.
  /// Returns the cycle at which service *starts* (>= now).  The caller's
  /// completion time is the returned value plus `duration`.
  Cycle acquire(Cycle now, Cycle duration) {
    const Cycle start = now > free_at_ ? now : free_at_;
    free_at_ = start + duration;
    return start;
  }

  /// Reserve and return the *completion* cycle directly.
  Cycle acquire_until(Cycle now, Cycle duration) {
    return acquire(now, duration) + duration;
  }

  Cycle free_at() const { return free_at_; }

 private:
  Cycle free_at_{0};
};

}  // namespace ascoma::sim
