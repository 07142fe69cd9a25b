#pragma once

// The AS-COMA adaptive back-off state machine, extracted as a pure value
// type so the same transition logic can be (a) executed by AsComaPolicy in
// the timing simulator and (b) exhaustively explored by check::PolicyModel
// (tools/ascoma_policycheck).  The kernel is time-free: its one input on
// the pressure side is a failed pageout-daemon run, and the machine already
// spaces daemon runs one (possibly stretched) daemon period apart, so the
// kernel sees at most one pressure signal per period.
//
// Pressure side (the daemon's first pass found too few cold pages): mark
// the node thrashing, reset the healthy streak, and raise the refetch
// threshold one increment, or once the threshold is saturated disable
// CC-NUMA -> S-COMA remapping entirely; every back-off also stretches the
// daemon period geometrically.  Under sustained pressure the node
// therefore converges monotonically to pure CC-NUMA behaviour (paper §2).
//
// Recovery side (daemon met its target and found genuinely cold pages): the
// relaxation is hysteretic — `relax_streak` consecutive healthy runs are one
// relaxation step, which re-enables remapping first and then walks the
// threshold back down; the thrashing flag clears only at full health
// (initial threshold, remapping enabled).

#include <algorithm>
#include <cstdint>

#include "common/types.hh"

namespace ascoma::arch {

/// Tuning constants, fixed at construction (MachineConfig in the simulator,
/// tiny abstract values in the checker).
struct BackoffSettings {
  std::uint32_t initial_threshold = 64;
  std::uint32_t increment = 64;
  std::uint32_t threshold_max = 1024;
  Cycle initial_period{500'000};
  Cycle period_max{8'000'000};
  double backoff_factor = 2.0;
  std::uint32_t relax_streak = 3;  ///< healthy runs per relaxation step
};

/// The kernel's complete mutable state, exposed as a POD so the model
/// checker can encode/decode it and mutation tests can perturb it.
struct BackoffState {
  std::uint32_t threshold = 0;
  bool relocation_enabled = true;
  bool thrashing = false;
  std::uint32_t success_streak = 0;  ///< healthy daemon runs since failure

  friend bool operator==(const BackoffState&, const BackoffState&) = default;
};

/// What one kernel step did (drives KernelStats / event emission).
struct BackoffStep {
  bool accepted = false;   ///< a relaxation step (healthy streak complete)
  bool escalated = false;  ///< threshold raised or remapping disabled
  bool relaxed = false;    ///< threshold lowered or remapping re-enabled
};

class BackoffKernel {
 public:
  explicit BackoffKernel(const BackoffSettings& s) : s_(s) {
    st_.threshold = s.initial_threshold;
  }

  /// Thrash signal: a daemon run failed.  `period` is the node's live
  /// daemon period, stretched in place.
  BackoffStep on_pressure(Cycle* period) {
    BackoffStep step;
    st_.thrashing = true;
    st_.success_streak = 0;
    if (st_.threshold <= s_.threshold_max - s_.increment) {
      st_.threshold += s_.increment;
      step.escalated = true;
    } else if (st_.relocation_enabled) {
      // Extreme pressure: disable CC-NUMA -> S-COMA remapping entirely.
      st_.relocation_enabled = false;
      step.escalated = true;
    }
    // Clamp in double before the cast: the configured factor may be any
    // value >= 1, and a product beyond u64 is undefined.
    const double grown =
        static_cast<double>(period->value()) * s_.backoff_factor;
    *period = grown < static_cast<double>(s_.period_max.value())
                  ? std::min<Cycle>(s_.period_max,
                                    Cycle{static_cast<Cycle::rep>(grown)})
                  : s_.period_max;
    return step;
  }

  /// Healthy daemon run.  `cold_evidence` is true when the run reclaimed
  /// pages and saw at least as many cold pages — the phase-change signal
  /// that justifies relaxing.  A single lucky run must not reopen the
  /// remapping floodgates, hence the streak.
  BackoffStep on_healthy(bool cold_evidence, Cycle* period) {
    BackoffStep step;
    if (!st_.thrashing || !cold_evidence) return step;
    if (++st_.success_streak < s_.relax_streak) return step;
    st_.success_streak = 0;
    step.accepted = true;
    if (!st_.relocation_enabled) {
      st_.relocation_enabled = true;
      step.relaxed = true;
    } else if (st_.threshold > s_.initial_threshold) {
      st_.threshold = std::max(s_.initial_threshold, st_.threshold - s_.increment);
      step.relaxed = true;
    }
    *period = std::max<Cycle>(
        s_.initial_period,
        Cycle{static_cast<Cycle::rep>(static_cast<double>(period->value()) /
                                      s_.backoff_factor)});
    if (st_.threshold == s_.initial_threshold && st_.relocation_enabled)
      st_.thrashing = false;
    return step;
  }

  /// Direct thrash mark without escalation (suppressed remap: the pool is
  /// drained right now, but the cache may not yet hold only hot pages).
  void mark_thrashing() { st_.thrashing = true; }

  std::uint32_t threshold() const { return st_.threshold; }
  bool relocation_enabled() const { return st_.relocation_enabled; }
  bool thrashing() const { return st_.thrashing; }

  const BackoffSettings& settings() const { return s_; }
  const BackoffState& state() const { return st_; }
  /// Overwrite the state (policy-checker decode; mutation tests).
  void restore(const BackoffState& st) { st_ = st; }

 private:
  BackoffSettings s_;
  BackoffState st_;
};

}  // namespace ascoma::arch
