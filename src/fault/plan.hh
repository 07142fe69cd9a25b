#pragma once

// Deterministic fault-injection plan for the interconnect.
//
// A FaultPlan decides, per delivered message, whether the fabric drops it,
// duplicates it, or delays it by random jitter.  Two sources of faults
// compose:
//
//   * seeded probabilities (MachineConfig::fault_drop / fault_dup /
//     fault_jitter), drawn from a dedicated RNG stream derived from the
//     top-level seed — the same seed replays the same fault pattern exactly;
//   * targeted rules — (kind, src, dst, cycle-window) tuples that force a
//     fault deterministically, used by tests and chaos experiments to stall
//     a specific node at a specific time.
//
// The plan is pure decision logic: it owns no timing.  net::Network consults
// it inside try_deliver(); proto::CoherentMemory consults nack_forced() when
// a request reaches a home node.  With no probabilities and no rules the
// plan reports !enabled() and the network takes its fault-free fast path,
// which consults no plan, keeping zero-fault runs bit-identical.

#include <cstdint>
#include <limits>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace ascoma::fault {

enum class FaultKind : std::uint8_t { kDrop, kDuplicate, kJitter, kNack };

const char* to_string(FaultKind k);

/// Forces `kind` on every message (or home request, for kNack) matching the
/// (src, dst, cycle-window) filter.  kInvalidNode matches any node.
struct TargetRule {
  FaultKind kind = FaultKind::kDrop;
  NodeId src = kInvalidNode;  ///< sending node filter (kNack: ignored)
  NodeId dst = kInvalidNode;  ///< receiving node filter (kNack: the home)
  Cycle begin{0};            ///< window start, inclusive
  Cycle end = kNeverCycle;    ///< window end, exclusive
};

/// What the fabric does to one message.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  Cycle jitter{0};
};

class FaultPlan {
 public:
  /// Disabled plan: decide() never faults, enabled() is false.
  FaultPlan() = default;

  /// Plan seeded and parameterised from the config's fault knobs.
  explicit FaultPlan(const MachineConfig& cfg);

  void add_rule(const TargetRule& r);

  /// Any probability nonzero or any rule added.  Cached: the network asks
  /// on every delivery, the constructor and add_rule set it, and rules are
  /// never removed (reset() keeps them).
  bool enabled() const { return enabled_; }

  /// Decide the fate of one message src -> dst injected at `now`.  Draws
  /// from the plan's RNG; calls are deterministic given a deterministic call
  /// order (the simulator is single-threaded per run).
  FaultDecision decide(Cycle now, NodeId src, NodeId dst);

  /// True when a kNack rule matches a request arriving at `home` at `now`.
  bool nack_forced(Cycle now, NodeId home) const;

  // ---- injection census -----------------------------------------------------
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t jitters() const { return jitters_; }
  std::uint64_t injected() const { return drops_ + duplicates_ + jitters_; }
  std::uint64_t seed() const { return seed_; }

  /// Forget counters and rewind the RNG to the seed (rule set is kept).
  void reset();

 private:
  bool rule_matches(const TargetRule& r, FaultKind kind, Cycle now,
                    NodeId src, NodeId dst) const;

  std::uint64_t seed_ = 0;
  Rng rng_;
  double drop_p_ = 0.0;
  double dup_p_ = 0.0;
  double jitter_p_ = 0.0;
  Cycle jitter_max_{0};
  std::vector<TargetRule> rules_;
  bool enabled_ = false;

  std::uint64_t decisions_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t jitters_ = 0;
};

}  // namespace ascoma::fault
