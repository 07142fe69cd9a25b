#pragma once

// Global sense-reversing barrier for the SPMD workloads.  All processors
// participate in every barrier episode (SPLASH-2 style).  The machine loop
// blocks a processor when it arrives early and releases every participant at
// max(arrival) + release cost, charging the waiting interval to SYNC.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"

namespace ascoma::sim {

class Barrier {
 public:
  Barrier(std::uint32_t nprocs, Cycle release_cost);

  /// Processor `p` arrives at `now`.  Returns the release cycle if this
  /// arrival completes the episode (the caller must then ready every other
  /// participant), or nullopt if `p` must block.
  std::optional<Cycle> arrive(std::uint32_t p, Cycle now);

  /// Arrival cycle of `p` within the current (or just-completed) episode.
  Cycle arrival_of(std::uint32_t p) const;

  /// Marks a processor as no longer participating (its stream ended).  A
  /// departure can complete an episode; if so the release cycle is returned.
  std::optional<Cycle> depart(std::uint32_t p, Cycle now);

  std::uint64_t episodes() const { return episodes_; }
  std::uint32_t waiting() const { return arrived_count_; }

 private:
  std::optional<Cycle> maybe_release();

  std::uint32_t participants_;
  Cycle release_cost_;
  std::vector<bool> arrived_;
  std::vector<bool> departed_;
  std::vector<Cycle> arrival_cycle_;
  std::uint32_t arrived_count_ = 0;
  std::uint32_t departed_count_ = 0;
  Cycle max_arrival_{0};
  std::uint64_t episodes_ = 0;
};

}  // namespace ascoma::sim
