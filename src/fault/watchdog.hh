#pragma once

// Forward-progress watchdog.
//
// The simulator's processors are blocking: exactly one memory transaction is
// outstanding per processor, and it is executed to completion inside
// proto::CoherentMemory::access().  Under fault injection that completion is
// no longer guaranteed — a fault storm or a NACK livelock can keep a
// transaction retrying indefinitely.  The watchdog bounds each transaction:
// access() arms it with the transaction's identity and start cycle, retry
// and NACK loops feed it the current simulated cycle, and once the elapsed
// time exceeds the configured bound the run fails with a WatchdogError whose
// message carries a dump of the in-flight transaction plus whatever protocol
// state the tripping layer gathered (directory entry, engine backlogs, port
// queues).  A bound of 0 disables the watchdog entirely.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hh"

namespace ascoma::fault {

/// Thrown when a transaction exceeds the forward-progress bound (or a retry
/// budget backstop fires).  what() contains the full diagnostic dump.
class WatchdogError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Watchdog {
 public:
  Watchdog() = default;
  explicit Watchdog(Cycle bound) : bound_(bound) {}

  bool enabled() const { return bound_ != Cycle{0}; }
  Cycle bound() const { return bound_; }

  /// The transaction currently under the bound.
  struct InFlight {
    bool active = false;
    std::uint32_t proc = 0;
    Addr addr{0};
    bool is_store = false;
    Cycle start{0};
    std::uint32_t retries = 0;  ///< network retransmissions so far
    std::uint32_t nacks = 0;    ///< NACKs received so far
  };

  void arm(std::uint32_t proc, Addr addr, bool is_store, Cycle start) {
    tx_ = InFlight{true, proc, addr, is_store, start, 0, 0};
  }
  void disarm() { tx_.active = false; }

  void note_retry() { ++tx_.retries; }
  void note_nack() { ++tx_.nacks; }

  /// Has the armed transaction been outstanding past the bound at `now`?
  bool expired(Cycle now) const {
    return enabled() && tx_.active && now > tx_.start + bound_;
  }

  const InFlight& in_flight() const { return tx_; }
  std::uint64_t trips() const { return trips_; }

  /// One-line description of the in-flight transaction for dumps.
  std::string describe_in_flight() const;

  /// Record the trip and throw WatchdogError.  `state_dump` is the protocol
  /// state gathered by the tripping layer; it is appended to the in-flight
  /// description.
  [[noreturn]] void trip(Cycle now, const std::string& state_dump);

 private:
  Cycle bound_{0};
  InFlight tx_;
  std::uint64_t trips_ = 0;
};

}  // namespace ascoma::fault
