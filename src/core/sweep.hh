#pragma once

// Parallel parameter-sweep runner: benchmarks evaluate dozens of
// (architecture × memory pressure × workload) points; each point is an
// independent single-threaded simulation, so the sweep fans them out over a
// thread pool and returns results in submission order.
//
// Besides the RunResults themselves the sweep records each job's host wall
// time (ARCHITECTURE.md §14), can stream a single-line-JSON progress
// heartbeat to stderr (`--progress` in the CLI), and flags straggler jobs
// whose wall time exceeded a configurable multiple of the sweep median
// (SweepTiming::straggler).

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/machine.hh"
#include "core/host.hh"

namespace ascoma::core {

struct SweepJob {
  std::string label;            ///< e.g. "ASCOMA(70%)"
  MachineConfig config;
  std::string workload;         ///< name for make_workload
  double workload_scale = 1.0;
};

/// Host-side execution envelope of one job (always recorded: two clock reads
/// per job).
struct SweepTiming {
  HostNs wall{0};                  ///< host wall time of the simulate() call
  bool straggler = false;          ///< wall > straggler_factor × sweep median
};

struct SweepResult {
  SweepJob job;
  RunResult result;
  SweepTiming timing;

  /// Simulated shared-memory accesses of the run.
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
  HostClock* clock = nullptr;   ///< injectable for tests
  /// Cooperative stop flag (the CLI wires the SIGINT/SIGTERM handler here):
  /// when it reads true, workers finish their in-flight job and claim no
  /// further jobs.  Ordering contract:
  /// the setter must publish with a release store (the shutdown handler in
  /// common/shutdown.cc does); workers poll with acquire loads.
  const std::atomic<bool>* stop = nullptr;
};

/// Runs all jobs on up to `opts.threads` worker threads; the calling thread
/// waits and writes the progress heartbeat.  Results are returned in job
/// order.  A job whose workload name is unknown throws (after every worker
/// has finished).
std::vector<SweepResult> run_sweep(std::vector<SweepJob> jobs,
                                   const SweepOptions& opts);

/// Back-compat entry point: no progress, no straggler check.
std::vector<SweepResult> run_sweep(std::vector<SweepJob> jobs,
                                   unsigned threads = 0);

/// The heartbeat line run_sweep emits (exposed for tests): single-line JSON, no trailing newline.  `wall`
/// is the sweep's elapsed host time, `cycles_done` the simulated cycles
/// completed so far; ETA extrapolates mean job wall time over the remainder.
/// `seq` is the heartbeat's monotonic sequence number (0-based) so a polling
/// consumer can tell a fresh beat from a re-read.
std::string progress_line(std::size_t done, std::size_t total,
                          HostNs wall, Cycle cycles_done,
                          std::uint64_t seq = 0);

/// Convenience builder: the full paper grid for one workload — every
/// architecture crossed with the given pressures (CC-NUMA once, since it is
/// pressure-independent).
std::vector<SweepJob> paper_grid(const std::string& workload,
                                 const std::vector<double>& pressures,
                                 const MachineConfig& base = {},
                                 double scale = 1.0);

}  // namespace ascoma::core
