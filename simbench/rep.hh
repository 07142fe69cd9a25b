#pragma once

// One repetition of a benchmark workload: set up and run every job through
// the public library API, time it from the outside, and fold the simulated
// results into counts and a digest.

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "spans.hh"
#include "workloads.hh"

namespace simbench {

/// One simulated data point: which job, and the cycles it took.
struct JobPoint {
  std::string program;
  ascoma::ArchModel arch = ascoma::ArchModel::kCcNuma;
  double pressure = 0.0;
  std::uint64_t cycles = 0;
};

struct RepResult {
  /// Host time from the first job's start to the last one's end, setup
  /// included (on the sweep path: the run_sweep call, not the set-up pass).
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< make_workload + Machine construction, all jobs
  double run_s = 0.0;    ///< host time simulating (Machine::run; per-job
                         ///< simulate() wall on the sweep path)
  double busy_s = 0.0;   ///< summed per-job host time
  unsigned workers = 1;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;  ///< threw, or finished without the invariant sweep
  std::vector<std::string> errors;
  std::string digest;
  std::uint64_t peak_rss_bytes = 0;  ///< VmHWM of this process
  /// Host seconds of a fixed cache-model loop, mean of one run before and
  /// one after the jobs: the host-speed reference the reported times are
  /// normalised by (run.py), so clock, share and cache-pressure changes of
  /// a shared host cancel out.
  double calib_s = 0.0;

  ascoma::NodeStats totals;  ///< summed over every job
  std::uint64_t net_messages = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t forwards = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t barrier_episodes = 0;
  std::vector<JobPoint> points;
};

/// Runs every job of `w` once.  Job failures are counted, never thrown.
/// A one-worker workload first pins the process to one CPU.
RepResult run_rep(const BenchWorkload& w, Tracer& tracer);

/// Pins the calling process to the last CPU it may run on, so a
/// single-threaded measurement does not migrate between cores.
void pin_to_one_cpu();

}  // namespace simbench
