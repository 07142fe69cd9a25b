#pragma once

// EventSink — the collection point of the observability layer.
//
// A sink owns (1) a fixed-capacity event buffer that drops (and counts) new
// events once full, so a runaway run can never exhaust memory, (2) per-kind
// tallies that keep counting even when the buffer overflows (exact totals
// survive drops), and (3) the time-series samples produced by the gauge
// Sampler.  Emission is a bounds-check and a push_back into pre-reserved
// storage; with no probe attached, producers skip a single null check, so
// the instrumented simulator stays within noise of the bare one.
//
// A sink is attached to a run through an obs::Probe (src/obs/probe.hh) or
// passed directly to exporters; it is not thread-safe and must not be
// shared across concurrent core::simulate() calls (sweep runs).

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/annotate.hh"
#include "common/types.hh"
#include "obs/event.hh"
#include "store/codec.hh"

namespace ascoma::obs {

/// One row of the time-series: the value of every per-node gauge at `cycle`.
struct Sample {
  Cycle cycle{0};
  NodeId node{0};
  std::uint64_t free_frames = 0;     ///< node's free page-cache frames
  std::uint64_t threshold = 0;       ///< node's current refetch threshold
  std::uint64_t cache_active = 0;    ///< active S-COMA pages (occupancy)
  std::uint64_t remote_misses = 0;   ///< cumulative remote fetches by node
};

class EventSink {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit EventSink(std::size_t capacity = kDefaultCapacity);

  /// Record one event; O(1), never allocates.  Once the buffer is full the
  /// event is dropped (oldest events are kept — the front of a trace is the
  /// part that explains how the run got where it is) but still tallied.
  void emit(const Event& e) {
    ++tally_[static_cast<int>(e.kind)];
    if (events_.size() == capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  void add_sample(const Sample& s) { samples_.push_back(s); }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Total emissions of `k`, including events dropped on overflow.
  std::uint64_t count(EventKind k) const {
    return tally_[static_cast<int>(k)];
  }

  /// Events in emission order (producers emit with non-decreasing per-node
  /// cycles, but nodes interleave).
  const std::vector<Event>& events() const { return events_; }

  /// Events stably sorted by cycle — the order exporters write.
  ASCOMA_DETERMINISM_SENSITIVE std::vector<Event> sorted_events() const;

  const std::vector<Sample>& samples() const { return samples_; }

  /// Forget all events, samples, tallies, and the drop count.
  void clear();

 private:
  std::size_t capacity_;
  std::vector<Event> events_;
  std::vector<Sample> samples_;
  std::array<std::uint64_t, kNumEventKinds> tally_{};
  std::uint64_t dropped_ = 0;
};

/// Fixed-cadence sampling clock: due() fires once the simulated clock
/// reaches the next multiple of `period`; advance() then skips every
/// boundary at or before `now` (a long stall yields one catch-up sample,
/// not a burst).  A period of 0 disables the sampler.
class Sampler {
 public:
  explicit Sampler(Cycle period = Cycle{0}) : period_(period), next_(period) {}

  bool enabled() const { return period_ != Cycle{0}; }
  Cycle period() const { return period_; }

  bool due(Cycle now) const { return enabled() && now >= next_; }

  /// Timestamp the pending sample carries (the boundary that fired).
  Cycle boundary() const { return next_; }

  void advance(Cycle now) {
    while (next_ <= now) next_ += period_;
  }

  // Checkpoint serialization (encode/decode stay adjacent — pairing check).
  void encode(store::Encoder& e) const {
    e.u64(period_.value());
    e.u64(next_.value());
  }
  void decode(store::Decoder& d) {
    if (Cycle{d.u64()} != period_)
      throw store::CodecError("sampler period mismatch");
    next_ = Cycle{d.u64()};
  }

 private:
  Cycle period_;
  Cycle next_;
};

}  // namespace ascoma::obs
