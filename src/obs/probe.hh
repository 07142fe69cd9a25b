#pragma once

// Probe — the single observation hook of a run.
//
// A run is watched through one non-owning `obs::Probe*`
// (MachineConfig::probe).  Every producer — core::Machine, the policies,
// proto::CoherentMemory, net::Network and the sweep runner — hands its
// events, gauge samples and latency attribution to the probe, and the probe
// forwards them to whichever consumers it was built with:
//
//   * a prof::Profiler — folds every event into per-page heat and per-node
//     back-off counters, and records the latency attribution of each
//     bracketed demand access;
//   * an obs::EventSink — the bounded event ring and the gauge time series
//     the JSONL / Perfetto / metrics exporters read.
//
// Either may be absent.  Events reach the profiler's fold before the ring's
// capacity check, so the heat map stays exact when the ring drops events.
// With no probe attached each hot hook is one predictable null check.  A
// probe never changes simulated behaviour, and (like its consumers) is not
// thread-safe: do not share one across concurrent simulate() calls.

#include <cstdint>

#include "common/types.hh"
#include "obs/event.hh"
#include "obs/sink.hh"
#include "prof/profiler.hh"

namespace ascoma::obs {

class Probe {
 public:
  /// Both consumers are non-owning and may be null.
  explicit Probe(prof::Profiler* profiler, EventSink* sink = nullptr)
      : profiler_(profiler), sink_(sink) {}

  /// The profiler, or null; demand accesses are bracketed only with one.
  prof::Profiler* profiler() const { return profiler_; }

  // ---- events and samples --------------------------------------------------
  void event(const Event& e) {
    if (profiler_) profiler_->fold(e);
    if (sink_) sink_->emit(e);
  }
  void event(EventKind kind, Cycle cycle, NodeId node,
             VPageId page = kInvalidPage, std::uint64_t a = 0,
             std::uint64_t b = 0, std::uint64_t c = 0) {
    event(Event{cycle, kind, node, page, a, b, c});
  }
  void sample(const Sample& s) {
    if (sink_) sink_->add_sample(s);
  }

  // ---- latency attribution (no-ops without a profiler) ---------------------
  /// True while a bracketed access is in flight.
  bool in_access() const { return profiler_ && profiler_->in_access(); }
  void begin_access(Cycle now) {
    if (profiler_) profiler_->begin_access(now);
  }
  void add(prof::Component c, Cycle cycles) {
    if (profiler_) profiler_->add(c, cycles);
  }
  void end_access(prof::AccessClass cls, VPageId page, Cycle end_to_end,
                  bool remote, bool refetch) {
    if (profiler_) profiler_->end_access(cls, page, end_to_end, remote, refetch);
  }

 private:
  prof::Profiler* profiler_;
  EventSink* sink_;
};

}  // namespace ascoma::obs
