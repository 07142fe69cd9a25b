#pragma once

// Sim-rate telemetry documents: the `BENCH_simspeed.json` format emitted by
// the sweep benches (schema ascoma.simspeed/1).  prof/diff.hh compares two
// of them for tools/ascoma_baseline_diff.
//
// A row captures one sweep job's simulation-speed envelope: simulated cycles
// and shared-memory accesses, host wall nanoseconds, the derived sim-rate
// (simulated cycles per wall second), process peak RSS, and the number of
// heap allocations attributed to the job.  Rows are joined on
// (label, workload, arch).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ascoma::prof {

inline constexpr const char* kSimspeedSchema = "ascoma.simspeed/1";

/// One sweep job's speed envelope.
struct SimspeedRow {
  std::string label;
  std::string workload;
  std::string arch;
  std::uint64_t cycles = 0;    ///< simulated cycles
  std::uint64_t accesses = 0;  ///< simulated shared-memory accesses
  std::uint64_t wall_ns = 0;   ///< host wall time for the job
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t allocs = 0;
  /// Host ns the job spent in the durability layer (fingerprinting, record
  /// I/O, manifest appends).  Informational only — never gated, and 0 when
  /// the sweep runs without a store, which the rate gate implicitly checks:
  /// store-off runs must not pay for the feature.
  std::uint64_t store_ns = 0;

  /// Simulated cycles per host wall second (0 when wall_ns is 0).
  double sim_rate_hz() const;
  /// Simulated accesses per host wall second (0 when wall_ns is 0).
  double access_rate_hz() const;
};

/// A whole BENCH_simspeed.json document.
struct SimspeedDoc {
  std::string bench;  ///< producing bench/CLI name, e.g. "table1_overhead"
  std::vector<SimspeedRow> rows;
};

/// Serialize `doc` as single-line JSON (schema ascoma.simspeed/1).  All
/// caller-supplied strings pass through obs::json_escape.
void write_simspeed(std::ostream& os, const SimspeedDoc& doc);

/// Parse a document produced by write_simspeed (tolerant of whitespace and
/// key order).  Counter fields must be plain unsigned integers that fit in
/// 64 bits.  Returns false and sets `error` on malformed input.
bool parse_simspeed(const std::string& text, SimspeedDoc& doc,
                    std::string& error);

}  // namespace ascoma::prof
