#pragma once

// AS-COMA — the paper's contribution.  Two departures from R-NUMA/VC-NUMA:
//
// 1. S-COMA-first allocation: while the local free page pool lasts, remote
//    pages are mapped directly in S-COMA mode (no refetches, no remap cost
//    at low memory pressure).  Once the pool drains — or while the node is
//    in thrash back-off — new pages are mapped CC-NUMA and must earn an
//    upgrade via the refetch threshold.
//
// 2. Adaptive replacement back-off: when the pageout daemon's first pass
//    cannot refill the pool to free_min — too few cold pages, the cache
//    holds only hot pages replacing each other — it (a) raises the refetch
//    threshold, (b) stretches the daemon period, and (c) under sustained
//    pressure disables CC-NUMA -> S-COMA remapping entirely, converging to
//    CC-NUMA behaviour.  When the daemon later refills the pool again (a
//    program phase change), the threshold steps back down and remapping
//    resumes.
//
// check::PolicyModel explores this class itself: it restore()s each
// explored node state into a real AsComaPolicy and steps it through the
// same calls core::Machine makes.

#include "arch/policy.hh"

namespace ascoma::arch {

class AsComaPolicy final : public Policy {
 public:
  /// The policy's complete mutable state (the policy checker's state key).
  struct State {
    std::uint32_t threshold = 0;
    bool relocation_enabled = true;
    bool thrashing = false;
    std::uint32_t success_streak = 0;  ///< healthy daemon runs since failure
  };

  explicit AsComaPolicy(const MachineConfig& cfg) : Policy(cfg) {}

  ArchModel model() const override { return ArchModel::kAsComa; }

  PageMode initial_mode(PolicyEnv& env) override;
  void on_daemon_result(PolicyEnv& env, const vm::DaemonResult& r) override;
  void on_remap_suppressed(PolicyEnv& env) override;

  bool thrashing() const { return thrashing_; }

  State state() const {
    return State{threshold_, relocation_enabled_, thrashing_, success_streak_};
  }
  void restore(const State& s) {
    threshold_ = s.threshold;
    relocation_enabled_ = s.relocation_enabled;
    thrashing_ = s.thrashing;
    success_streak_ = s.success_streak;
  }

 private:
  /// Consecutive healthy daemon runs per relaxation step.
  static constexpr std::uint32_t kRelaxStreak = 3;

  void back_off(PolicyEnv& env);
  void relax(PolicyEnv& env);

  bool thrashing_ = false;
  std::uint32_t success_streak_ = 0;
};

}  // namespace ascoma::arch
