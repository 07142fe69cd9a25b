#pragma once

// SweepStatusBoard — the shared per-job status table behind obsd's
// `GET /jobs` and `GET /jobs/<fingerprint>` endpoints.
//
// run_sweep owns one board per served sweep: workers mark jobs running /
// finished under the board's mutex, the heartbeat thread parks its latest
// progress line here (promoting the stderr heartbeat to `GET /progress`),
// and the serve thread renders JSON snapshots on demand.  Renderers copy
// a consistent snapshot of the table under the mutex and format it after
// dropping it (lint_concurrency rule C4: no string building under a held
// lock), and every caller-supplied string (labels, workload names) passes
// through obs::json_escape on the way out.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.hh"
#include "core/sweep.hh"

namespace ascoma::core {

/// One job's live row on the board.
struct JobStatus {
  enum class State : std::uint8_t {
    kPending,   ///< not yet claimed by a worker
    kRunning,   ///< simulate() in flight
    kDone,      ///< simulated to completion
    kCached,    ///< satisfied from the result store
    kFailed,    ///< the job threw (the sweep rethrows after joining)
  };

  State state = State::kPending;
  std::string label;
  std::string workload;
  std::string arch;
  double pressure = 0.0;
  std::string fingerprint;          ///< content-hash hex (store identity)
  HostNs started{0};                ///< sweep-relative claim time
  HostNs finished{0};               ///< sweep-relative completion time
  SweepTiming timing;               ///< valid once finished
  std::uint64_t sim_cycles = 0;
  std::uint64_t accesses = 0;
};

const char* to_string(JobStatus::State s);

class SweepStatusBoard {
 public:
  /// (Re)populate the board: one pending row per job, in job order.
  /// `fingerprints` must be parallel to `jobs`.
  void reset(const std::vector<SweepJob>& jobs,
             const std::vector<std::string>& fingerprints)
      ASCOMA_EXCLUDES(mu_);

  void mark_running(std::size_t i, HostNs since_sweep_start)
      ASCOMA_EXCLUDES(mu_);
  /// `state` is kDone, kCached, or kFailed.
  void mark_finished(std::size_t i, JobStatus::State state,
                     const SweepResult& r,
                     HostNs since_sweep_start)
      ASCOMA_EXCLUDES(mu_);
  /// Post-hoc straggler flag (the straggler pass runs after all jobs join).
  void mark_straggler(std::size_t i) ASCOMA_EXCLUDES(mu_);

  /// Park the newest heartbeat line (single-line JSON, no newline).
  void set_progress(std::string line) ASCOMA_EXCLUDES(mu_);
  /// The parked heartbeat, or a minimal `{"sweep":"progress",...}` stub
  /// before the first beat.  Always single-line JSON plus '\n'.
  std::string progress_json() const ASCOMA_EXCLUDES(mu_);

  /// `GET /jobs`: a JSON object with sweep totals and one summary row per
  /// job.
  std::string jobs_json() const ASCOMA_EXCLUDES(mu_);

  /// `GET /jobs/<fp>`: the full row whose fingerprint equals `key` or
  /// starts with it (unique prefix), or whose decimal job index is `key`.
  /// Empty string when there is no (unique) match.
  std::string job_json(std::string_view key) const ASCOMA_EXCLUDES(mu_);

  std::size_t size() const ASCOMA_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<JobStatus> jobs_ ASCOMA_GUARDED_BY(mu_);
  std::string progress_ ASCOMA_GUARDED_BY(mu_);
};

}  // namespace ascoma::core
