#pragma once

// Split-transaction coherent memory bus (Runway-style).  Modeled as a single
// occupancy resource: each bus transaction (request + data return) holds the
// bus for `bus_occupancy` cycles; the split-transaction property is captured
// by *not* holding the bus while DRAM or the network service the request.

#include "common/config.hh"
#include "common/types.hh"
#include "sim/resource.hh"

namespace ascoma::mem {

class Bus {
 public:
  explicit Bus(const MachineConfig& cfg) : occupancy_(cfg.bus_occupancy) {}

  /// One bus transaction starting at or after `now`; returns completion.
  Cycle transact(Cycle now) { return hold(now, occupancy_); }

  /// A shorter address-only transaction (coherence responses, invalidates).
  Cycle transact_short(Cycle now) {
    return hold(now, (occupancy_ + Cycle{1}) / 2);
  }

  /// Cycles the bus has been held, over all transactions.
  Cycle busy_cycles() const { return busy_; }
  /// Share of [0, horizon] the bus was held (0 for a zero horizon).
  double utilization(Cycle horizon) const;

 private:
  Cycle hold(Cycle now, Cycle duration) {
    busy_ += duration;
    return res_.acquire_until(now, duration);
  }

  Cycle occupancy_;
  sim::Resource res_;
  Cycle busy_{0};
};

}  // namespace ascoma::mem
