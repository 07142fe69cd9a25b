#pragma once

// Queued (ticket-style, FIFO) lock table for workload Lock/Unlock operations.
// Lock service time abstracts the underlying fetch&op traffic; contended
// waits are charged to the SYNC bucket by the machine loop.

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"

namespace ascoma::sim {

class LockTable {
 public:
  explicit LockTable(Cycle op_cost) : op_cost_(op_cost) {}

  /// Processor `p` tries to acquire `lock_id` at `now`.  Returns the grant
  /// cycle if the lock was free; nullopt if `p` was queued (the machine must
  /// block it; it will be resumed via the pair returned by release()).
  std::optional<Cycle> acquire(std::uint64_t lock_id, std::uint32_t p,
                               Cycle now);

  struct Grant {
    std::uint32_t proc;
    Cycle grant_cycle;
    Cycle enqueue_cycle;  ///< when the grantee originally requested the lock
  };

  /// Processor `p` releases `lock_id` at `now`.  If a waiter exists, returns
  /// its grant record so the machine can resume it.
  std::optional<Grant> release(std::uint64_t lock_id, std::uint32_t p,
                               Cycle now);

  bool is_held(std::uint64_t lock_id) const;
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contended_acquisitions() const { return contended_; }

 private:
  struct LockState {
    bool held = false;
    std::uint32_t holder = 0;
    std::deque<std::pair<std::uint32_t, Cycle>> waiters;  // (proc, enqueue)
  };

  Cycle op_cost_;
  std::unordered_map<std::uint64_t, LockState> locks_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
};

}  // namespace ascoma::sim
