#pragma once

// Abstract-state model of the AS-COMA adaptive policy layer for exhaustive
// checking (tools/ascoma_policycheck).
//
// The model covers the paper's contribution — the per-node policy state
// machine: S-COMA-first allocation while the free pool lasts, CC-NUMA ->
// S-COMA upgrade on the refetch threshold, and the pageout-daemon back-off
// that converges to pure CC-NUMA behaviour under sustained memory pressure
// (PAPER.md §1–§2).
// The back-off/relaxation transitions are not re-derived: the model drives
// the very arch::BackoffKernel the simulator's AsComaPolicy executes,
// instantiated with tiny abstract constants (threshold 1 step from max,
// period 4..16 cycles) so the state space stays exhaustively explorable.
//
// State per node: the kernel's BackoffState, the live daemon period, the
// mapping mode and saturating refetch counter of each remote page this node
// may touch, and two environment budgets (touches, daemon runs) that bound
// the exploration.  Free frames are derived: free = pool_frames − #S-COMA
// pages, which keeps frame accounting an invariant rather than a variable.
//
// Nondeterministic environment transitions per node:
//   * touch page p      — first touch maps via the policy's initial-mode
//                         rule; CC-NUMA touches count refetches and attempt
//                         the threshold upgrade; pool-drained upgrades are
//                         suppressed and mark the node thrashing;
//   * daemon run fails  — BackoffKernel::on_pressure (the machine spaces
//                         daemon runs a full period apart, so every failure
//                         is a fresh back-off);
//   * daemon run succeeds — BackoffKernel::on_healthy, optionally reclaiming
//                         one S-COMA page (the downgrade victim).
//
// Checked properties (the paper's §2 claims, as transition assertions plus
// state invariants; violations carry BFS-minimal counterexamples):
//   * back-off monotonicity — a pressure step never lowers the threshold
//     and, until fully converged, must raise it or disable remapping; the
//     daemon period must lengthen until saturated;
//   * convergence to CC-NUMA — with the threshold saturated, the next
//     pressure step disables remapping; no S-COMA-first allocation
//     and no upgrades while thrashing/disabled;
//   * recovery — an accepted healthy step never raises the threshold or
//     lengthens the period, must make relaxation progress until full
//     health, and full health clears the thrashing flag (S-COMA mapping
//     resumes);
//   * frame accounting — S-COMA mappings never exceed the pool.
//
// Nodes share no policy state (each node's pool, kernel, and counters are
// private), so by default the model schedules the lowest-indexed node that
// still has an enabled transition — a persistent-set reduction that is
// sound and complete for these per-node properties.  --full-interleaving
// restores the full product for cross-checking on tiny budgets.
//
// Known-bad policy mutations (PolicyMutation) perturb the kernel-step
// results or the upgrade guards; each must drive at least one property to a
// violation, which tests/test_policy_check.cc asserts.

#include <cstdint>
#include <string>
#include <vector>

#include "arch/backoff_kernel.hh"
#include "check/explore_core.hh"
#include "common/types.hh"

namespace ascoma::check {

// ---- configuration ----------------------------------------------------------

/// Known-bad policy mutations for checker regression tests.
enum class PolicyMutation : std::uint8_t {
  kNone,
  /// Back-off forgets to raise the refetch threshold: pressure never
  /// escalates and the node cannot converge to CC-NUMA.
  kThresholdNeverRaised,
  /// Back-off forgets to stretch the daemon period: reclaim attempts keep
  /// firing at full rate under pressure.
  kPeriodNotLengthened,
  /// The upgrade path ignores the remap-enabled bit: pages keep upgrading
  /// to S-COMA after extreme pressure disabled remapping.
  kUpgradeWhileDisabled,
  /// The upgrade path ignores pool occupancy: an upgrade with no free frame
  /// overcommits the page-frame pool.
  kUpgradeIgnoresPool,
  /// Recovery never clears the thrashing flag: S-COMA-first allocation
  /// never resumes after pressure drops.
  kThrashingSticky,
};
inline constexpr int kNumPolicyMutations = 6;

const char* to_string(PolicyMutation m);
bool parse_policy_mutation(const std::string& name, PolicyMutation* out);

struct PolicyCheckConfig {
  std::uint32_t nodes = 2;           ///< 1..4
  std::uint32_t pages_per_node = 2;  ///< remote pages a node may map (1..4)
  std::uint32_t pool_frames = 1;     ///< S-COMA frames per node (1..3)
  std::uint32_t touches = 4;         ///< per-node page-touch budget
  std::uint32_t daemon_runs = 6;     ///< per-node pageout-daemon budget
  /// Persistent-set reduction over independent nodes (see header comment).
  bool ordered = true;
  PolicyMutation mutation = PolicyMutation::kNone;

  /// Why a field is out of range, or "" when every field is in range.
  /// PolicyModel's constructor throws CheckFailure on a non-empty reason.
  std::string range_error() const;

  /// Abstract kernel constants: threshold 1 (initial) or 2 (max), daemon
  /// period 4 -> 8 -> 16 cycles, two healthy runs per relaxation step.
  arch::BackoffSettings settings() const {
    arch::BackoffSettings s;
    s.initial_threshold = 1;
    s.increment = 1;
    s.threshold_max = 2;
    s.initial_period = Cycle{4};
    s.period_max = Cycle{16};
    s.backoff_factor = 2.0;
    s.relax_streak = 2;
    return s;
  }
};

// ---- model state ------------------------------------------------------------

/// Mapping mode of one remote page on one node.
enum class PageState : std::uint8_t { kUnmapped, kNuma, kScoma };

const char* to_string(PageState p);

struct PolicyState {
  struct Page {
    std::uint8_t mode = 0;       ///< PageState
    std::uint8_t refetches = 0;  ///< saturating; meaningful in kNuma
  };
  struct Node {
    arch::BackoffState backoff;
    Cycle period{0};
    std::vector<Page> pages;
    std::uint8_t touches_left = 0;
    std::uint8_t daemon_left = 0;

    std::uint32_t scoma_count() const;
  };
  std::vector<Node> nodes;

  /// Violation raised while *generating* this state (property assertion
  /// failed on the transition).  Not part of encode(); Model::check()
  /// reports it before sweeping the state invariants.
  std::string violation;

  /// Canonical byte encoding — the hash key.  Lossless given the
  /// configuration: PolicyModel::decode() inverts it.
  std::string encode() const;
};

// ---- transitions ------------------------------------------------------------

/// A transition label, formatted lazily into counterexample traces.  The
/// outcome names what the policy decided, so traces read as policy states
/// ("mapped S-COMA", "upgrade suppressed: pool drained"), not raw ints.
struct PolicyAction {
  enum class Type : std::uint8_t {
    kTouch,       ///< node touches a remote page
    kDaemonFail,  ///< pageout daemon misses its free target
    kDaemonOk,    ///< pageout daemon meets its target (cold pages seen)
  };
  enum class Outcome : std::uint8_t {
    kNone,
    kMapScoma,      ///< first touch -> S-COMA (pool frame consumed)
    kMapNuma,       ///< first touch -> CC-NUMA (pool drained or thrashing)
    kScomaHit,      ///< page-cache hit on an S-COMA mapping
    kRefetch,       ///< CC-NUMA refetch below the threshold
    kUpgrade,       ///< threshold reached -> remapped to S-COMA
    kUpgradeDenied, ///< threshold reached but remapping is disabled
    kSuppressed,    ///< threshold reached but the pool is drained
    kReclaim,       ///< healthy run downgrades an S-COMA victim
    kNoVictim,      ///< healthy run with no S-COMA page to reclaim
  };

  Type type = Type::kTouch;
  Outcome outcome = Outcome::kNone;
  std::uint8_t node = 0;
  std::uint8_t page = 0;  ///< touched page or reclaim victim

  std::string format() const;
};

/// One checker step (explore_model's SuccessorT).
struct PolicySuccessor {
  PolicyState state;
  PolicyAction action;
};

/// The policy model: pure functions from a state to its successors and
/// property verdicts, instantiating explore_core.hh's model interface.
class PolicyModel {
 public:
  using StateT = PolicyState;
  using ActionT = PolicyAction;
  using SuccessorT = PolicySuccessor;

  explicit PolicyModel(const PolicyCheckConfig& cfg);

  const PolicyCheckConfig& config() const { return cfg_; }

  PolicyState initial() const;
  PolicyState decode(const std::string& enc) const;
  void successors(const PolicyState& s, std::vector<PolicySuccessor>* out) const;
  std::string check(const PolicyState& s) const;
  bool final_state(const PolicyState& s) const;
  std::string describe(const PolicyState& s) const;

 private:
  /// Appends every transition of node `n`; returns whether any was enabled.
  bool node_steps(const PolicyState& s, std::uint32_t n,
                  std::vector<PolicySuccessor>* out) const;
  void apply_touch(const PolicyState& s, std::uint32_t n, std::uint32_t p,
                   std::vector<PolicySuccessor>* out) const;
  void apply_daemon_fail(const PolicyState& s, std::uint32_t n,
                         std::vector<PolicySuccessor>* out) const;
  void apply_daemon_ok(const PolicyState& s, std::uint32_t n, int victim,
                       std::vector<PolicySuccessor>* out) const;

  PolicyCheckConfig cfg_;
  arch::BackoffSettings set_;
};

}  // namespace ascoma::check
