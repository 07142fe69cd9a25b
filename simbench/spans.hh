#pragma once

// In-memory span recorder for the traced benchmark run.  Spans are opened
// only by the benchmark's own code, around each call it makes into a
// simulator layer; nothing inside the library is instrumented.  A span
// records its name, start, end and the span that was open when it began.
// When tracing is off every call is a branch on a bool.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace simbench {

/// Host nanoseconds on the steady clock.
std::uint64_t now_ns();

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index into the record list; -1 for a root span
};

/// Per-name roll-up: how often a span ran, its total duration, and its self
/// time (duration minus the part its direct children cover).
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  /// RAII span; closes when it leaves scope.  Spans must nest (LIFO).
  class Span {
   public:
    Span(Tracer& t, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  const std::vector<SpanRecord>& records() const { return records_; }
  /// Roll-up per span name, in order of first appearance.
  std::vector<SpanStat> stats() const;

 private:
  bool on_;
  std::vector<SpanRecord> records_;
  int open_ = -1;  ///< innermost open span
};

/// Self time of every record of a finished trace, by record index.
std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& records);

}  // namespace simbench
