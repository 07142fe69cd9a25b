#pragma once

// Exhaustive check of the AS-COMA adaptive policy layer (PAPER.md §1–§2):
// S-COMA-first allocation while the free pool lasts, CC-NUMA -> S-COMA
// upgrade on the refetch threshold, and the pageout-daemon back-off that
// converges to pure CC-NUMA behaviour under sustained memory pressure.
//
// Nothing here decides what the policy does.  Every step restores one
// node's explored state into the simulator's own arch::AsComaPolicy, wires
// it to a real vm::PageCache (one frame allocated per S-COMA page) through
// an arch::PolicyEnv built from policy_check_machine(), makes the call
// core::Machine makes, and reads the policy's state back.  The tiny
// machine keeps the space exhaustively explorable.
//
// State per node: AsComaPolicy::State, the live daemon period, the mapping
// mode and saturating refetch counter of each remote page this node may
// touch, and two budgets (touches, daemon runs) that bound the exploration.
//
// Environment transitions per node:
//   * touch page p        — first touch: initial_mode; S-COMA page:
//                           on_page_cache_hit; CC-NUMA page: one more
//                           refetch, should_relocate, and with no free
//                           frame on_remap_suppressed;
//   * daemon run fails    — on_daemon_result with met_target false;
//   * daemon run succeeds — optionally reclaiming one S-COMA page
//                           (on_replacement), then on_daemon_result with
//                           met_target true.
//
// Checked properties (the paper's §2 claims, as transition assertions and
// state invariants; violations carry BFS-minimal counterexamples):
//   * S-COMA-first — a first touch maps S-COMA only on a node that is not
//     thrashing and has a free frame;
//   * back-off monotonicity — a pressure step never lowers the threshold
//     and, until fully converged, must raise it or disable remapping; the
//     daemon period must lengthen until saturated;
//   * convergence to CC-NUMA — with the threshold saturated, the next
//     pressure step disables remapping; no upgrades while disabled;
//   * recovery — a healthy run never raises the threshold, disables
//     remapping or lengthens the period; a completed healthy streak must
//     make relaxation progress until full health, and full health clears
//     the thrashing flag (S-COMA mapping resumes);
//   * frame accounting — S-COMA mappings never exceed the pool.
//
// Nodes share no policy state, so by default only the lowest-indexed node
// that still has an enabled transition is scheduled — a persistent-set
// reduction that is sound and complete for these per-node properties.
// `ordered = false` explores the full product for cross-checking.
//
// Each PolicyMutation perturbs the real policy's result after the real call
// and must drive some property to a violation (tests/test_policy_check.cc).

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"

namespace ascoma::check {

/// Known-bad policy mutations for checker regression tests.
enum class PolicyMutation : std::uint8_t {
  kNone,
  /// Back-off keeps the old refetch threshold: pressure never escalates and
  /// the node cannot converge to CC-NUMA.
  kThresholdNeverRaised,
  /// Back-off keeps the old daemon period: reclaim attempts keep firing at
  /// full rate under pressure.
  kPeriodNotLengthened,
  /// The upgrade path ignores the remap-enabled bit: pages keep upgrading
  /// to S-COMA after extreme pressure disabled remapping.
  kUpgradeWhileDisabled,
  /// The upgrade path ignores pool occupancy: an upgrade with no free frame
  /// overcommits the page-frame pool.
  kUpgradeIgnoresPool,
  /// Recovery keeps the old thrashing flag: S-COMA-first allocation never
  /// resumes after pressure drops.
  kThrashingSticky,
};
inline constexpr int kNumPolicyMutations = 6;

const char* to_string(PolicyMutation m);

struct PolicyCheckConfig {
  std::uint32_t nodes = 2;           ///< 1..4
  std::uint32_t pages_per_node = 2;  ///< remote pages a node may map (1..4)
  std::uint32_t pool_frames = 1;     ///< S-COMA frames per node (1..3)
  std::uint32_t touches = 4;         ///< per-node page-touch budget (<= 255)
  std::uint32_t daemon_runs = 6;     ///< per-node daemon budget (<= 255)
  /// Persistent-set reduction over independent nodes (header comment).
  bool ordered = true;
  PolicyMutation mutation = PolicyMutation::kNone;
};

/// The machine the checked AsComaPolicy runs on: refetch threshold 1,
/// increment 1, max 2, daemon period 4 -> 8 -> 16 cycles.
MachineConfig policy_check_machine();

struct ExploreResult {
  bool ok = true;          ///< no violation found
  bool truncated = false;  ///< hit the state cap before exhausting the space
  std::string violation;   ///< first violation (empty when ok)
  std::vector<std::string> trace;  ///< action sequence reaching the violation
  std::string final_dump;  ///< rendering of the violating state
  std::uint64_t states = 0;       ///< distinct states visited
  std::uint64_t transitions = 0;  ///< edges explored
  std::uint64_t finals = 0;       ///< states with every budget spent

  /// Multi-line report (verdict, stats, counterexample if any).
  std::string report() const;
};

/// Breadth-first search of every state reachable under `cfg`; throws
/// CheckFailure when a field is out of range.
ExploreResult explore(const PolicyCheckConfig& cfg);

}  // namespace ascoma::check
