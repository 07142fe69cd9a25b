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
//    CC-NUMA behaviour.  When the daemon later finds ample cold pages (a
//    program phase change), the threshold steps back down and remapping
//    resumes.
//
// The back-off/relaxation state machine itself lives in BackoffKernel
// (backoff_kernel.hh) so check::PolicyModel can explore the exact same
// transition logic exhaustively; this class owns the simulator-facing glue
// (the ablation switches, stats and events).

#include "arch/backoff_kernel.hh"
#include "arch/policy.hh"

namespace ascoma::arch {

class AsComaPolicy final : public Policy {
 public:
  explicit AsComaPolicy(const MachineConfig& cfg)
      : Policy(cfg),
        kernel_(BackoffSettings{cfg.refetch_threshold, cfg.threshold_increment,
                                cfg.threshold_max, cfg.daemon_period,
                                cfg.daemon_period_max,
                                cfg.daemon_backoff_factor,
                                /*relax_streak=*/3}) {}

  ArchModel model() const override { return ArchModel::kAsComa; }

  PageMode initial_mode(PolicyEnv& env) override;
  void on_daemon_result(PolicyEnv& env, const vm::DaemonResult& r) override;
  void on_remap_suppressed(PolicyEnv& env) override;

  bool thrashing() const { return kernel_.thrashing(); }
  const BackoffKernel& kernel() const { return kernel_; }

 private:
  /// Mirror the kernel's threshold/remap decision into the Policy base
  /// fields the rest of the simulator reads.
  void sync_from_kernel() {
    threshold_ = kernel_.threshold();
    relocation_enabled_ = kernel_.relocation_enabled();
  }

  BackoffKernel kernel_;
};

}  // namespace ascoma::arch
