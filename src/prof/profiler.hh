#pragma once

// Latency-attribution profiler and per-page heat profiler (layered on
// src/obs).
//
// The paper's argument is about *where* memory-access cycles go: CC-NUMA
// pays remote stalls, S-COMA pays page-fault/remap overhead, and AS-COMA's
// threshold back-off shifts the balance between them.  The Profiler makes
// that visible for one run:
//
//   * Latency attribution — core::Machine and proto::CoherentMemory bracket
//     every blocking demand access with begin_access()/end_access() and
//     attribute each cycle of it to one Component (L1, bus, RAC, DSM engine,
//     directory, DRAM, network fabric, port queueing, retry/NACK backoff,
//     invalidation stall, VM fault, kernel remap machinery) as the
//     transaction's critical path advances.  Per access class the profiler
//     keeps a log2-bucketed histogram of end-to-end latency plus one
//     histogram per component segment.  By construction the recorded
//     segments of an access sum exactly to its end-to-end latency;
//     attribution_mismatches() counts any access for which they do not
//     (always 0 unless an instrumentation site is missed).
//
//   * Per-page heat — fold() takes every event of the run (forwarded by the
//     run's obs::Probe) into per-page counters (faults, allocation modes,
//     upgrades, evictions, suppressed remaps) and per-node back-off
//     trajectories (threshold raises/drops, daemon runs).  Refetch and
//     remote-fetch counts per page come from end_access().  The probe folds
//     before any event ring applies its capacity, so the heat map is exact
//     whether or not a ring is attached or overflows.
//
// Attach via an obs::Probe (MachineConfig::probe, non-owning).  A profiler
// never changes simulated behaviour — runs with and without one are
// bit-identical.  Not thread-safe: do not share across concurrent
// simulate() calls.
//
// write_profile(dir) dumps the whole profile as machine-readable artifacts
// (latency.csv/json, heat.csv/json, summary.json); tools/ascoma_baseline_diff
// compares two such dumps and flags latency/percentile regressions.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/event.hh"
#include "prof/histogram.hh"

namespace ascoma::prof {

/// Where a cycle of a demand access was spent.
enum class Component : std::uint8_t {
  kL1,          ///< L1 hit/fill time
  kBus,         ///< node-bus transactions on the requester's critical path
  kRac,         ///< RAC data-array access
  kEngine,      ///< DSM-engine occupancy and queueing (requester + home)
  kDirectory,   ///< home directory state lookup
  kDram,        ///< DRAM bank access (home, owner, or page-cache frame)
  kNetFabric,   ///< uncontended network traversal (NI + switches + wires)
  kNetQueue,    ///< input-port contention and injected jitter
  kBackoff,     ///< retry timeouts and NACK exponential-backoff waits
  kInvalStall,  ///< waiting for invalidation acks beyond the data return
  kVmFault,     ///< kernel page-fault base cost (K-BASE share of the access)
  kVmKernel,    ///< kernel remap/eviction/daemon overhead on the access path
};
inline constexpr int kNumComponents = 12;

/// Paper-aligned classification of a demand access.
enum class AccessClass : std::uint8_t {
  kL1Hit,           ///< satisfied entirely by the processor's L1
  kLocalHome,       ///< local home DRAM (incl. sibling supply of home pages)
  kScomaHit,        ///< S-COMA page-cache replica supplied locally
  kRacHit,          ///< remote access cache hit
  kOwnership,       ///< ownership-only upgrade (data already in the L1)
  kRemoteCold,      ///< remote CC-NUMA fetch, first touch of the block
  kRemoteCoherence, ///< remote fetch or GETX forced by write sharing
  kRemoteRefetch,   ///< remote conflict/capacity refetch (the paper's CONF/CAPC)
  kUpgradeRefetch,  ///< refetch that crossed the threshold and triggered a
                    ///< relocation attempt (kernel remap rides on the access)
};
inline constexpr int kNumAccessClasses = 9;

const char* to_string(Component c);
const char* to_string(AccessClass c);

/// Per-page activity census (the heat-map row).
struct PageHeat {
  VPageId page = kInvalidPage;
  std::uint64_t accesses = 0;        ///< profiled demand accesses to the page
  std::uint64_t faults = 0;          ///< first-touch mapping faults
  std::uint64_t scoma_allocs = 0;
  std::uint64_t numa_allocs = 0;
  std::uint64_t upgrades = 0;        ///< CC-NUMA -> S-COMA remaps
  std::uint64_t downgrades = 0;      ///< S-COMA evictions
  std::uint64_t suppressed = 0;      ///< relocation interrupts backed off
  std::uint64_t refetches = 0;       ///< directory-counted conflict refetches
  std::uint64_t remote_fetches = 0;  ///< accesses needing a network round trip
  /// Distinct pageout-daemon back-off epochs (node threshold raises) during
  /// which this page was evicted — pages churned across escalations.
  std::uint64_t backoff_epochs = 0;

  bool any() const {
    return accesses || faults || upgrades || downgrades || suppressed;
  }
};

/// Per-node policy trajectory (back-off epochs).
struct NodeHeat {
  std::uint64_t threshold_raises = 0;
  std::uint64_t threshold_drops = 0;
  std::uint64_t daemon_runs = 0;
  std::uint64_t daemon_failures = 0;  ///< runs that missed free_target
  std::uint64_t suppressed = 0;
  std::uint64_t last_threshold = 0;   ///< threshold after the last move
};

class Profiler {
 public:
  Profiler();

  // ---- run metadata (stamped into the profile dump) ------------------------
  void set_meta(std::string workload, std::string arch, double pressure,
                std::uint64_t seed);
  void set_run_cycles(Cycle cycles) { run_cycles_ = cycles; }

  // ---- latency attribution (producers: core::Machine, proto) ---------------
  void begin_access(Cycle now);
  /// Attribute `cycles` of the in-flight access to `c`; no-op outside an
  /// access so stray producer calls can never corrupt the next record.
  void add(Component c, Cycle cycles) {
    if (in_access_) scratch_[static_cast<int>(c)] += cycles;
  }
  /// Commit the in-flight access: `end_to_end` is the measured latency (the
  /// processor's stall); `remote` marks a network round trip; `refetch`
  /// marks a directory-counted conflict refetch.
  void end_access(AccessClass cls, VPageId page, Cycle end_to_end,
                  bool remote, bool refetch);
  bool in_access() const { return in_access_; }

  // ---- heat-map event intake (forwarded by obs::Probe) ----------------------
  /// Fold one event into the heat map.  Page-subject events land in
  /// PageHeat, back-off and daemon events in NodeHeat; every other kind is
  /// a listed no-op (tools/lint_protocol.py keeps the switch exhaustive).
  void fold(const obs::Event& e);

  // ---- results -------------------------------------------------------------
  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t attribution_mismatches() const { return mismatches_; }
  const LatencyHistogram& end_to_end(AccessClass cls) const {
    return end_to_end_[static_cast<int>(cls)];
  }
  const LatencyHistogram& segment(AccessClass cls, Component c) const {
    return segments_[static_cast<int>(cls)][static_cast<int>(c)];
  }
  /// End-to-end histogram over every profiled access (all classes merged).
  LatencyHistogram merged_end_to_end() const;
  /// Total cycles attributed to `c` across all classes.
  std::uint64_t component_cycles(Component c) const;

  /// Heat rows for pages with any recorded activity, ascending page id.
  std::vector<PageHeat> page_heat() const;
  const std::vector<NodeHeat>& node_heat() const { return nodes_; }

  // ---- export --------------------------------------------------------------
  void write_latency_csv(std::ostream& os) const;
  void write_heat_csv(std::ostream& os) const;
  void write_latency_json(std::ostream& os) const;
  void write_heat_json(std::ostream& os) const;
  void write_summary_json(std::ostream& os) const;

  /// Header line of latency.csv / heat.csv (shared with diff and tests).
  static std::string latency_csv_header();
  static std::string heat_csv_header();

  /// Write the whole profile into `dir` (created if missing): latency.csv,
  /// latency.json, heat.csv, heat.json, summary.json.  Returns false on any
  /// I/O failure.
  bool write_profile(const std::string& dir) const;

 private:
  PageHeat& page(VPageId p);

  // Scratch of the in-flight access.
  std::array<Cycle, kNumComponents> scratch_{};
  bool in_access_ = false;

  std::array<LatencyHistogram, kNumAccessClasses> end_to_end_;
  std::array<std::array<LatencyHistogram, kNumComponents>, kNumAccessClasses>
      segments_;
  std::uint64_t accesses_ = 0;
  std::uint64_t mismatches_ = 0;

  std::vector<PageHeat> pages_;          // dense, indexed by page id
  /// Per page: (node, raise-count) key of the back-off epoch in which the
  /// page was last evicted; sentinel ~0ull = never.
  std::vector<std::uint64_t> page_last_epoch_;
  std::vector<NodeHeat> nodes_;

  std::string workload_;
  std::string arch_;
  double pressure_ = 0.0;
  std::uint64_t seed_ = 0;
  Cycle run_cycles_{0};
};

}  // namespace ascoma::prof
