#pragma once

// Baseline comparison behind tools/ascoma_baseline_diff (CI gates on its
// exit status) and the unit tests.  Both inputs are profile directories
// (Profiler::write_profile); their latency.csv rows are joined on (class,
// component).  A row regresses when its p99 or its mean (sum/count) grew by
// more than p99_tol / mean_tol AND by at least `min_cycles` absolute — the
// floor keeps tiny histograms (a 2-cycle p99 becoming 3) from tripping a
// percentage gate.  Rows with fewer than `min_count` samples on either side
// are skipped as meaningless; rows present on only one side are
// informational.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ascoma::prof {

struct DiffOptions {
  double p99_tol = 0.10;         ///< relative p99 growth that fails the gate
  double mean_tol = 0.10;        ///< relative mean growth that fails the gate
  std::uint64_t min_cycles = 16; ///< absolute growth floor (cycles)
  std::uint64_t min_count = 100; ///< minimum samples per side to compare
};

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
    kRowVanished,      ///< informational: row in baseline only
    kRowAppeared,      ///< informational: row in candidate only
  };
  Kind kind;
  std::string row;          ///< join key: "class/component"
  double base_value = 0.0;  ///< baseline value of the compared column
  double cand_value = 0.0;  ///< candidate value of the compared column
  double ratio = 0.0;       ///< cand / base (0 when base is 0)

  bool is_regression() const {
    return kind == Kind::kP99Regression || kind == Kind::kMeanRegression;
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

/// Compare two profile directories on disk.  A missing input, a file where a
/// directory is expected, or a malformed latency.csv sets DiffReport::error.
DiffReport diff_baselines(const std::string& baseline_path,
                          const std::string& candidate_path,
                          const DiffOptions& opts = {});

/// Compare already-parsed latency rows.
DiffReport diff_baselines(const std::vector<LatencyRow>& baseline,
                          const std::vector<LatencyRow>& candidate,
                          const DiffOptions& opts = {});

/// Human-readable report; one line per finding plus a verdict line.
void write_report(std::ostream& os, const DiffReport& report,
                  const DiffOptions& opts);

}  // namespace ascoma::prof
