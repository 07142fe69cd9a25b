#pragma once

// Parallel parameter-sweep runner: benchmarks evaluate dozens of
// (architecture × memory pressure × workload) points; each point is an
// independent single-threaded simulation, so the sweep fans them out over a
// thread pool and returns results in submission order.
//
// Besides the RunResults themselves the sweep records a host-side timing
// envelope per job (wall time, peak RSS, allocation count — the sim-rate
// telemetry of ARCHITECTURE.md §14), can stream a single-line-JSON progress
// heartbeat to stderr (`--progress` in the CLI), and flags straggler jobs whose wall time
// exceeded a configurable multiple of the sweep median, emitting a
// kSweepStraggler event on the options' sink.
//
// With SweepOptions::store_dir set the sweep becomes durable: each job is
// fingerprinted (core/sweep_store.hh) and looked up in a store::ResultStore
// before simulating; hits skip the simulation entirely (kSweepCacheHit on
// the sink, `cached` count in the heartbeat), misses persist their result
// atomically after completion, and every finished job appends one fsync'd
// line to the store's manifest journal.  Killing the process at any point
// and re-running the same sweep against the same store reproduces the exact
// result vector without redoing completed work.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/machine.hh"
#include "obs/sink.hh"
#include "core/host.hh"

namespace ascoma::core {

struct SweepJob {
  std::string label;            ///< e.g. "ASCOMA(70%)"
  MachineConfig config;
  std::string workload;         ///< name for make_workload
  double workload_scale = 1.0;
};

/// Host-side execution envelope of one job (always recorded: two clock reads
/// and one /proc lookup per job).
struct SweepTiming {
  HostNs wall{0};                  ///< host wall time of the simulate() call
  std::uint64_t peak_rss_bytes = 0;///< process high-water RSS after the job
  std::uint64_t allocs = 0;        ///< heap allocations on the job's thread
  bool straggler = false;          ///< wall > straggler_factor × sweep median
  /// Host time spent in the result store for this job (lookup + decode on a
  /// hit; encode + atomic write + manifest append on a miss).  Always 0 when
  /// SweepOptions::store_dir is empty — the store is zero-cost when off.
  HostNs store{0};
  bool cached = false;             ///< satisfied from the result store
};

struct SweepResult {
  SweepJob job;
  RunResult result;
  SweepTiming timing;

  /// Simulated shared-memory accesses of the run (sim-rate denominator).
  std::uint64_t accesses() const;
  /// Simulated cycles per host wall second (0 when the wall time is 0).
  double sim_rate_hz() const;
};

struct SweepOptions {
  unsigned threads = 0;            ///< 0 = hardware concurrency
  bool progress = false;           ///< heartbeat JSON lines on progress_out
  std::uint32_t progress_interval_ms = 1000;
  std::ostream* progress_out = nullptr;  ///< nullptr = std::cerr
  /// A job is a straggler when its wall time exceeds this multiple of the
  /// sweep median (needs >= 2 jobs); 0 disables the check.
  double straggler_factor = 3.0;
  obs::EventSink* sink = nullptr;  ///< kSweepStraggler / kSweepCacheHit
  HostClock* clock = nullptr;      ///< injectable for tests
  /// Non-empty = durable sweep: open a store::ResultStore here, satisfy
  /// jobs from it when possible, persist misses, journal completions to the
  /// manifest.  The directory is created if missing; corrupt records found
  /// on open are quarantined and reported once on std::cerr.
  std::string store_dir;
  /// Cooperative stop flag (the CLI wires the SIGINT/SIGTERM handler here):
  /// when it reads true, workers finish their in-flight job — persisting it
  /// to the store as usual — and claim no further jobs.  Ordering contract:
  /// the setter must publish with a release store (the shutdown handler in
  /// store/shutdown.cc does); workers poll with acquire loads.
  const std::atomic<bool>* stop = nullptr;
};

/// Runs all jobs on up to `opts.threads` worker threads.  Results are
/// returned in job order.  A job whose workload name is unknown throws
/// (after all threads join).
std::vector<SweepResult> run_sweep(std::vector<SweepJob> jobs,
                                   const SweepOptions& opts);

/// Back-compat entry point: no progress, no straggler sink.
std::vector<SweepResult> run_sweep(std::vector<SweepJob> jobs,
                                   unsigned threads = 0);

/// The heartbeat line run_sweep emits (exposed for tests): single-line JSON, no trailing newline.  `wall`
/// is the sweep's elapsed host time, `cycles_done` the simulated cycles
/// completed so far; ETA extrapolates mean job wall time over the remainder.
/// `cached` counts jobs satisfied from the result store (always 0 when no
/// store is configured).  `seq` is the heartbeat's monotonic sequence
/// number (0-based) so a polling consumer can tell a fresh beat from a
/// re-read.
std::string progress_line(std::size_t done, std::size_t total,
                          HostNs wall, Cycle cycles_done,
                          std::size_t cached = 0, std::uint64_t seq = 0);

/// Convenience builder: the full paper grid for one workload — every
/// architecture crossed with the given pressures (CC-NUMA once, since it is
/// pressure-independent).
std::vector<SweepJob> paper_grid(const std::string& workload,
                                 const std::vector<double>& pressures,
                                 const MachineConfig& base = {},
                                 double scale = 1.0);

}  // namespace ascoma::core
