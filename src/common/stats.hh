#pragma once

// Statistics collected by the simulator.  The structures mirror the paper's
// reporting: TimeBreakdown is the left column of Figures 2/3 (relative
// execution time by bucket) and MissBreakdown is the right column (where
// cache misses to shared data were satisfied).

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ascoma {

/// Cycles spent per execution-time bucket (Figures 2/3 left columns).
struct TimeBreakdown {
  std::array<Cycle, kNumTimeBuckets> cycles{};

  Cycle& operator[](TimeBucket b) { return cycles[static_cast<int>(b)]; }
  Cycle operator[](TimeBucket b) const { return cycles[static_cast<int>(b)]; }

  Cycle total() const;
  void add(const TimeBreakdown& other);
  /// Fraction of total time in bucket b (0 if total is 0).
  double frac(TimeBucket b) const;

  friend bool operator==(const TimeBreakdown&, const TimeBreakdown&) = default;
};

const char* to_string(TimeBucket b);

/// Counts of shared-data cache misses by satisfaction point (Figures 2/3
/// right columns).  kCoherence is folded into CONF/CAPC when printing
/// paper-style tables (the paper does not break it out) but is tracked
/// separately because invalidation misses are not refetches.
struct MissBreakdown {
  std::array<std::uint64_t, kNumMissSources> count{};

  std::uint64_t& operator[](MissSource s) { return count[static_cast<int>(s)]; }
  std::uint64_t operator[](MissSource s) const {
    return count[static_cast<int>(s)];
  }

  std::uint64_t total() const;
  /// Misses satisfied locally (home DRAM, S-COMA page cache, or RAC).
  std::uint64_t local() const;
  /// Misses requiring a remote fetch.
  std::uint64_t remote() const;
  void add(const MissBreakdown& other);

  friend bool operator==(const MissBreakdown&, const MissBreakdown&) = default;
};

const char* to_string(MissSource s);

/// Kernel / VM activity counters (drivers of K-BASE and K-OVERHD).
struct KernelStats {
  std::uint64_t page_faults = 0;       ///< first-touch mapping faults
  std::uint64_t scoma_allocs = 0;      ///< pages initially mapped S-COMA
  std::uint64_t numa_allocs = 0;       ///< pages initially mapped CC-NUMA
  std::uint64_t upgrades = 0;          ///< CC-NUMA -> S-COMA remaps
  std::uint64_t downgrades = 0;        ///< S-COMA -> CC-NUMA evictions
  std::uint64_t relocation_interrupts = 0;
  std::uint64_t lines_flushed = 0;     ///< valid L1 lines flushed by remaps
  std::uint64_t daemon_runs = 0;
  std::uint64_t daemon_pages_scanned = 0;
  std::uint64_t daemon_pages_reclaimed = 0;
  std::uint64_t daemon_reclaim_failures = 0;  ///< runs that missed free_target
  std::uint64_t threshold_raises = 0;  ///< back-off escalations
  std::uint64_t threshold_drops = 0;   ///< back-off relaxations
  std::uint64_t remap_suppressed = 0;  ///< relocation requests ignored
  std::uint64_t refetch_notifications = 0;  ///< threshold crossings signalled
  // Always 0: the fabric is lossless and homes never refuse a request.
  // Kept only because the benchmark's digest (simbench) reads them.
  std::uint64_t net_retries = 0;
  std::uint64_t nacks = 0;

  void add(const KernelStats& other);

  friend bool operator==(const KernelStats&, const KernelStats&) = default;
};

/// Per-node statistics rolled up into a machine-wide RunStats by core::Machine.
struct NodeStats {
  TimeBreakdown time;
  MissBreakdown misses;
  KernelStats kernel;
  std::uint64_t shared_loads = 0;
  std::uint64_t shared_stores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t upgrades_issued = 0;       ///< ownership-only transactions
  std::uint64_t induced_cold_misses = 0;   ///< cold misses re-created by flushes
  std::uint64_t remote_pages_touched = 0;  ///< distinct remote pages accessed

  void add(const NodeStats& other);

  friend bool operator==(const NodeStats&, const NodeStats&) = default;
};

/// Whole-run result (sum over nodes plus machine-level facts).
struct RunStats {
  NodeStats totals;
  Cycle parallel_cycles{0};      ///< makespan of the parallel phase
  std::uint32_t nodes = 0;
  std::uint64_t frames_per_node = 0;
  std::uint64_t home_pages_per_node = 0;  ///< max over nodes
  double memory_pressure = 0.0;

  /// Remote-overhead estimate per the paper's cost model of Section 2.1.
  double remote_overhead_cycles() const;

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

}  // namespace ascoma
