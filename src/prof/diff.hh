#pragma once

// Baseline comparison behind tools/ascoma_baseline_diff (CI gates on its
// exit status) and the unit tests.  Both inputs are of one kind, and the
// kind picks the rule set; everything else is shared: rows are joined on a
// key, each gated column fails on a relative tolerance plus an absolute
// floor, rows present on only one side are informational, and one report
// writer prints the findings.
//
//  * Profile directory (Profiler::write_profile): latency.csv rows joined on
//    (class, component).  A row regresses when its p99 or its mean
//    (sum/count) grew by more than p99_tol / mean_tol AND by at least
//    `min_cycles` absolute — the floor keeps tiny histograms (a 2-cycle p99
//    becoming 3) from tripping a percentage gate.  Rows with fewer than
//    `min_count` samples on either side are skipped as meaningless.
//  * ascoma.simspeed/1 file (prof/simspeed.hh): rows joined on (label,
//    workload, arch).  Wall time is the one cross-machine-noisy axis, so
//    the gate is generous where the latency gate is tight: a row regresses
//    only when its sim-rate *dropped* by more than `rate_tol` AND both sides
//    ran at least `min_wall_ms`.  Peak-RSS and allocation-count growth use
//    their own tolerances.  A simulated-cycle change is informational —
//    bit-identity is golden_default_run's job, not this gate's.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "prof/simspeed.hh"

namespace ascoma::prof {

struct DiffOptions {
  // Profile-directory rules.
  double p99_tol = 0.10;         ///< relative p99 growth that fails the gate
  double mean_tol = 0.10;        ///< relative mean growth that fails the gate
  std::uint64_t min_cycles = 16; ///< absolute growth floor (cycles)
  std::uint64_t min_count = 100; ///< minimum samples per side to compare
  // Simspeed-file rules.
  double rate_tol = 0.25;        ///< relative sim-rate drop that fails
  double rss_tol = 0.50;         ///< relative peak-RSS growth that fails
  double allocs_tol = 0.25;      ///< relative allocation-count growth
  std::uint64_t min_wall_ms = 50;///< both sides must run at least this long
};

/// Which rule set an input selects.
enum class BaselineKind : std::uint8_t { kProfile, kSimspeed };

/// A directory is a profile dump; anything else an ascoma.simspeed/1 file.
BaselineKind baseline_kind(const std::string& path);

/// One parsed latency.csv row.
struct LatencyRow {
  std::string cls;
  std::string component;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;

  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
};

struct DiffFinding {
  enum class Kind : std::uint8_t {
    kP99Regression,    ///< latency p99 grew beyond p99_tol
    kMeanRegression,   ///< latency mean grew beyond mean_tol
    kRateRegression,   ///< sim-rate dropped beyond rate_tol
    kRssRegression,    ///< peak RSS grew beyond rss_tol
    kAllocRegression,  ///< allocation count grew beyond allocs_tol
    kCyclesChanged,    ///< informational: simulated work itself changed
    kRowVanished,      ///< informational: row in baseline only
    kRowAppeared,      ///< informational: row in candidate only
  };
  Kind kind;
  std::string row;          ///< join key: "class/component" or
                            ///< "label/workload/arch"
  double base_value = 0.0;  ///< baseline value of the compared column
  double cand_value = 0.0;  ///< candidate value of the compared column
  double ratio = 0.0;       ///< cand / base (0 when base is 0)

  bool is_regression() const {
    return kind != Kind::kCyclesChanged && kind != Kind::kRowVanished &&
           kind != Kind::kRowAppeared;
  }
};

struct DiffReport {
  std::vector<DiffFinding> findings;
  std::size_t rows_compared = 0;
  std::string error;  ///< non-empty when an input could not be used

  bool ok() const { return error.empty(); }
  std::size_t regressions() const;
};

/// Parse the latency.csv text of one dump.  Returns false (and sets `error`)
/// on a malformed header or row.
bool parse_latency_csv(const std::string& text, std::vector<LatencyRow>& rows,
                       std::string& error);

/// Compare two inputs on disk: two profile directories or two simspeed
/// files.  Missing, malformed or mixed-kind inputs set DiffReport::error.
DiffReport diff_baselines(const std::string& baseline_path,
                          const std::string& candidate_path,
                          const DiffOptions& opts = {});

/// Compare already-parsed latency rows.
DiffReport diff_baselines(const std::vector<LatencyRow>& baseline,
                          const std::vector<LatencyRow>& candidate,
                          const DiffOptions& opts = {});

/// Compare already-parsed simspeed documents.
DiffReport diff_baselines(const SimspeedDoc& baseline,
                          const SimspeedDoc& candidate,
                          const DiffOptions& opts = {});

/// Human-readable report; one line per finding plus a verdict line.
void write_report(std::ostream& os, const DiffReport& report,
                  const DiffOptions& opts);

}  // namespace ascoma::prof
