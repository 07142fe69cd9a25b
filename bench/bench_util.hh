#pragma once

// Shared plumbing for the paper-reproduction benchmark binaries: the exact
// (architecture x pressure) bar sets each figure shows, paper-style table
// printers for the execution-time breakdown (Figs 2/3 left) and the miss
// satisfaction breakdown (Figs 2/3 right), and environment knobs:
//
//   ASCOMA_BENCH_SCALE    workload iteration scale (default 1.0)
//   ASCOMA_BENCH_THREADS  sweep parallelism (default: hardware)
//   ASCOMA_BENCH_CSV      append sweep results as CSV rows to this file

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "core/sweep.hh"
#include "report/report.hh"

namespace ascoma::bench {

inline double bench_scale() {
  if (const char* s = std::getenv("ASCOMA_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return 1.0;
}

inline unsigned bench_threads() {
  if (const char* s = std::getenv("ASCOMA_BENCH_THREADS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 0;  // hardware concurrency
}

/// When ASCOMA_BENCH_CSV is set, append every sweep result as CSV rows to
/// that file (header written once per file) — every bench's one
/// machine-readable output, alongside the human-readable tables.  A file
/// that cannot be opened or written ends the bench with exit status 1, as
/// the CLI's exporters do.
inline void maybe_export_csv(const std::string& workload,
                             const std::vector<core::SweepResult>& rs) {
  const char* path = std::getenv("ASCOMA_BENCH_CSV");
  if (!path || !*path) return;
  const bool fresh = !std::ifstream(path).good();
  std::ofstream csv(path, std::ios::app);
  if (fresh) csv << report::csv_header_walltime() << '\n';
  for (const auto& r : rs)
    csv << report::csv_row(workload, to_string(r.job.config.arch), r) << '\n';
  csv.flush();
  if (!csv) {  // failed to open, or a write failed
    std::cerr << "cannot write bench CSV file: " << path << '\n';
    std::exit(1);
  }
}

/// The bar sets shown in Figures 2 and 3, per application.  S-COMA is only
/// shown at pressures where the paper ran it (it collapses beyond); barnes
/// was only simulated to 50% because its free-page pool is tiny beyond that.
inline std::vector<core::SweepJob> figure_jobs(const std::string& app,
                                               const MachineConfig& base = {},
                                               double scale = 0.0) {
  if (scale <= 0.0) scale = bench_scale();
  std::map<ArchModel, std::vector<int>> grid;
  if (app == "barnes") {
    grid[ArchModel::kScoma] = {10, 30, 50};
    for (ArchModel a :
         {ArchModel::kAsComa, ArchModel::kVcNuma, ArchModel::kRNuma})
      grid[a] = {10, 50, 70};
  } else if (app == "radix") {
    grid[ArchModel::kScoma] = {10, 30};
    for (ArchModel a :
         {ArchModel::kAsComa, ArchModel::kVcNuma, ArchModel::kRNuma})
      grid[a] = {10, 70, 90};
  } else if (app == "em3d") {
    grid[ArchModel::kScoma] = {10, 70};
    for (ArchModel a :
         {ArchModel::kAsComa, ArchModel::kVcNuma, ArchModel::kRNuma})
      grid[a] = {10, 70, 90};
  } else {  // fft, lu, ocean
    grid[ArchModel::kScoma] = {10, 70, 90};
    for (ArchModel a :
         {ArchModel::kAsComa, ArchModel::kVcNuma, ArchModel::kRNuma})
      grid[a] = {10, 70, 90};
  }

  std::vector<core::SweepJob> jobs;
  auto add = [&](ArchModel arch, int pct) {
    core::SweepJob j;
    j.config = base;
    j.config.arch = arch;
    j.config.memory_pressure = pct / 100.0;
    j.label = std::string(to_string(arch)) + "(" + std::to_string(pct) + "%)";
    j.workload = app;
    j.workload_scale = scale;
    jobs.push_back(std::move(j));
  };
  add(ArchModel::kCcNuma, 50);
  for (ArchModel a : {ArchModel::kScoma, ArchModel::kAsComa,
                      ArchModel::kVcNuma, ArchModel::kRNuma})
    for (int pct : grid[a]) add(a, pct);
  return jobs;
}

/// Adapt sweep results to the report library's labeled view.
inline std::vector<report::LabeledResult> labeled(
    const std::vector<core::SweepResult>& rs) {
  std::vector<report::LabeledResult> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back({r.job.label, &r.result});
  return out;
}

/// Left column of Figures 2/3: execution time relative to CC-NUMA, stacked
/// by bucket (each cell is that bucket's share of CC-NUMA's total time, so
/// the row sums to the "relative execution time" bar height).
inline void print_time_breakdown(const std::string& app,
                                 const std::vector<core::SweepResult>& rs,
                                 std::ostream& os = std::cout) {
  const auto view = labeled(rs);
  os << "== " << app << ": relative execution time (left chart) ==\n";
  report::time_breakdown_table(view, report::baseline_cycles(view)).print(os);
}

/// Right column of Figures 2/3: where cache misses to shared data were
/// satisfied.  COHERENCE is folded into CONF/CAPC as the paper does.
inline void print_miss_breakdown(const std::string& app,
                                 const std::vector<core::SweepResult>& rs,
                                 std::ostream& os = std::cout) {
  os << "== " << app << ": where misses were satisfied (right chart) ==\n";
  report::miss_breakdown_table(labeled(rs)).print(os);
}

/// Finds a result by label; aborts with a message if missing.
inline const core::SweepResult& find(
    const std::vector<core::SweepResult>& rs, const std::string& label) {
  for (const auto& r : rs)
    if (r.job.label == label) return r;
  std::cerr << "missing result: " << label << '\n';
  std::abort();
}

}  // namespace ascoma::bench
