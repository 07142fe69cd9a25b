#pragma once

// Paper-style result rendering: the left (execution-time breakdown) and
// right (miss-satisfaction breakdown) charts of Figures 2/3 as text tables,
// plus CSV export.  Used by the benchmark binaries and the ascoma CLI; kept
// in the library so downstream users can emit the same reports for their
// own workloads.

#include <string>
#include <vector>

#include "common/annotate.hh"
#include "common/table.hh"
#include "core/machine.hh"
#include "core/sweep.hh"
#include "prof/profiler.hh"

namespace ascoma::report {

struct LabeledResult {
  std::string label;  ///< e.g. "ASCOMA(70%)"
  const core::RunResult* result = nullptr;
};

/// Cycles of the first result whose architecture is CC-NUMA (the paper's
/// normalization baseline); falls back to the first result if none.
double baseline_cycles(const std::vector<LabeledResult>& results);

/// Left chart: execution time relative to `baseline` stacked by bucket.
/// Each bucket cell is that bucket's share of the *relative* bar height, so
/// a row's bucket columns sum to its rel.time column.
Table time_breakdown_table(const std::vector<LabeledResult>& results,
                           double baseline);

/// Right chart: where shared-data misses were satisfied.  COHERENCE folds
/// into CONF/CAPC as the paper's figures do.
Table miss_breakdown_table(const std::vector<LabeledResult>& results);

/// One-line human summary of a run (cycles, top buckets, miss locality).
std::string summary_line(const core::RunResult& r);

/// The back-off trajectory of a run: initial -> final refetch threshold
/// with escalation/relaxation counts, e.g.
/// "back-off: threshold 64->128 (2 raises, 1 drop), relocation on 8/8
///  nodes, 5 suppressed remaps".  Counts come from the run's KernelStats.
std::string backoff_trajectory(const core::RunResult& r);

/// Per-access-class latency table sourced from a run's Profiler: a merged
/// "all" headline row plus one row per access class with recorded samples.
/// Requires a profiler attached to the run (through MachineConfig::probe).
Table latency_table(const prof::Profiler& prof);

/// CSV schema shared by the CLI and any scripting around the benches.  The
/// profiler overloads append min/p50/p99/max end-to-end latency columns
/// after the existing ones, so the base schema stays a strict prefix.
ASCOMA_DETERMINISM_SENSITIVE std::string csv_header();
ASCOMA_DETERMINISM_SENSITIVE std::string csv_header(bool with_latency);
ASCOMA_DETERMINISM_SENSITIVE std::string csv_row(const std::string& workload,
                                                 const std::string& arch,
                                                 const core::RunResult& r);
ASCOMA_DETERMINISM_SENSITIVE std::string csv_row(const std::string& workload,
                                                 const std::string& arch,
                                                 const core::RunResult& r,
                                                 const prof::Profiler& prof);

/// Telemetry variants: the base (or latency) schema plus integer `wall_ms`
/// and `sim_rate` (simulated cycles per host wall second, rounded down)
/// columns.  Only the sweep-driven exports use these — the CLI's default
/// schema stays byte-stable without them (the golden gate depends on it).
std::string csv_header_walltime(bool with_latency = false);
std::string csv_row(const std::string& workload, const std::string& arch,
                    const core::SweepResult& sr);

}  // namespace ascoma::report
