#pragma once

// AS-COMA — the paper's contribution.  Two departures from R-NUMA/VC-NUMA:
//
// 1. S-COMA-first allocation: while the local free page pool lasts, remote
//    pages are mapped directly in S-COMA mode (no refetches, no remap cost
//    at low memory pressure).  Once the pool drains — or while the node is
//    in thrash back-off — new pages are mapped CC-NUMA and must earn an
//    upgrade via the refetch threshold.
//
// 2. Adaptive replacement back-off: when the pageout daemon cannot refill
//    the pool to free_target it (a) raises the refetch threshold, (b)
//    stretches the daemon period, and (c) under sustained pressure disables
//    CC-NUMA -> S-COMA remapping entirely, converging to CC-NUMA behaviour.
//    When the daemon later finds ample cold pages (a program phase change),
//    the threshold steps back down and remapping resumes.
//
// The back-off/relaxation state machine itself lives in BackoffKernel
// (backoff_kernel.hh) so check::PolicyModel can explore the exact same
// transition logic exhaustively; this class owns the simulator-facing glue
// (time, stats, the hot-page-churn detector).

#include <vector>

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
  bool should_relocate(PolicyEnv& env, VPageId page,
                       std::uint32_t refetches) override;
  void on_daemon_result(PolicyEnv& env, const vm::DaemonResult& r) override;
  void on_replacement(PolicyEnv& env, VPageId victim) override;
  void on_remap_suppressed(PolicyEnv& env) override;

  bool thrashing() const { return kernel_.thrashing(); }
  const BackoffKernel& kernel() const { return kernel_; }

  void reserve_pages(std::uint64_t total_pages) override {
    if (total_pages > downgraded_at_.size())
      downgraded_at_.resize(total_pages, kNeverDowngraded);
  }

 private:
  void back_off(PolicyEnv& env);
  /// Mirror the kernel's threshold/remap decision into the Policy base
  /// fields the rest of the simulator reads.
  void sync_from_kernel() {
    threshold_ = kernel_.threshold();
    relocation_enabled_ = kernel_.relocation_enabled();
  }

  /// "no recorded downgrade" sentinel — simulated time never reaches 2^64-1.
  static constexpr Cycle kNeverDowngraded{~std::uint64_t{0}};

  /// Cold growth for direct-construction uses (tests) that never call
  /// reserve_pages(); simulator runs pre-size the array at machine setup, so
  /// the hot mutators below stay allocation-free.
  void grow_for(VPageId page) { reserve_pages(page.value() + 1); }

  BackoffKernel kernel_;
  Cycle last_backoff_{0};
  /// Downgrade timestamps indexed by page (kNeverDowngraded = absent): a
  /// page re-earning its upgrade shortly after being evicted means the cache
  /// is churning equally-hot pages — the paper's "replacing hot pages with
  /// other hot pages" thrash signature.
  std::vector<Cycle> downgraded_at_;
};

}  // namespace ascoma::arch
