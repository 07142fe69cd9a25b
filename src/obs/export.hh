#pragma once

// Exporters for EventSink contents.  Three formats:
//
//   * JSONL        — one JSON object per event, sorted by cycle; the format
//                    scripts grep/jq over.
//   * Perfetto     — Chrome trace-event JSON loadable in ui.perfetto.dev:
//                    one process ("node N") per simulated node, instant
//                    events for policy transitions on an "events" thread
//                    track, and one counter track per gauge.  Cycle stamps
//                    are written as microseconds 1:1.
//   * metrics CSV  — the Sampler's gauge time series, one row per
//                    (sample boundary, node).
//
// The stream overloads are the primitive (tests golden-match them); the
// path overloads open/truncate the file and return false on I/O failure.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/annotate.hh"
#include "obs/sink.hh"

namespace ascoma::obs {

/// Escape `s` for embedding inside a JSON string literal: backslash-escapes
/// quotes and backslashes, \uXXXX-escapes control characters.  Every string
/// an exporter writes into JSON must pass through here — event-kind and
/// gauge names happen to be clean identifiers today, but workload names and
/// labels are caller-supplied.
std::string json_escape(std::string_view s);

/// Quote `s` as an RFC 4180 CSV field: returned verbatim unless it contains
/// a comma, quote, or newline, in which case it is double-quote wrapped with
/// embedded quotes doubled.
std::string csv_field(std::string_view s);

ASCOMA_DETERMINISM_SENSITIVE void write_jsonl(std::ostream& os,
                                              const EventSink& sink);
ASCOMA_DETERMINISM_SENSITIVE void write_perfetto(std::ostream& os,
                                                 const EventSink& sink,
                                                 std::uint32_t nodes);
ASCOMA_DETERMINISM_SENSITIVE void write_metrics_csv(std::ostream& os,
                                                    const EventSink& sink);

/// Header line of the metrics CSV (shared with tests/scripts).
std::string metrics_csv_header();

bool write_jsonl_file(const std::string& path, const EventSink& sink);
bool write_perfetto_file(const std::string& path, const EventSink& sink,
                         std::uint32_t nodes);
bool write_metrics_csv_file(const std::string& path, const EventSink& sink);

/// Post-mortem flusher: binds a sink to its configured export paths so that
/// an abnormal termination (CheckFailure, WatchdogError) can still persist
/// the trace that explains the failure.  flush() writes every configured
/// path once; later calls are no-ops, so a crash handler may call it
/// unconditionally and a successful run's regular export can take over.
class CrashExporter {
 public:
  CrashExporter() = default;
  CrashExporter(const EventSink* sink, std::string events_path,
                std::string perfetto_path, std::string metrics_path,
                std::uint32_t nodes)
      : sink_(sink),
        events_path_(std::move(events_path)),
        perfetto_path_(std::move(perfetto_path)),
        metrics_path_(std::move(metrics_path)),
        nodes_(nodes) {}

  /// Returns the number of files written (0 when unbound, already flushed,
  /// or no paths are configured).  Never throws.
  std::size_t flush() noexcept;

  bool flushed() const { return flushed_; }

 private:
  const EventSink* sink_ = nullptr;
  std::string events_path_;
  std::string perfetto_path_;
  std::string metrics_path_;
  std::uint32_t nodes_ = 0;
  bool flushed_ = false;
};

}  // namespace ascoma::obs
