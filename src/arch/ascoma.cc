#include "arch/ascoma.hh"

#include <algorithm>

namespace ascoma::arch {

PageMode AsComaPolicy::initial_mode(PolicyEnv& env) {
  // S-COMA-preferred while the pool lasts; CC-NUMA once it drains or while
  // the node has concluded local memory cannot hold the working set.
  if (!env.cfg.ascoma_scoma_first) return PageMode::kNuma;
  if (!thrashing_ && env.page_cache.free_frames() > 0) return PageMode::kScoma;
  return PageMode::kNuma;
}

void AsComaPolicy::on_remap_suppressed(PolicyEnv& env) {
  if (!env.cfg.ascoma_backoff) return;
  // A suppressed remap means the pool is drained *right now* — evidence that
  // memory is tight (stop S-COMA-first allocation), but not yet that the
  // cache holds only hot pages.  Only a pageout-daemon run that fails to
  // find cold pages (on_daemon_result) escalates the threshold; if the
  // daemon keeps succeeding (a phase-structured program like lu), remapping
  // continues at the pool-refill rate.
  thrashing_ = true;
}

void AsComaPolicy::on_daemon_result(PolicyEnv& env, const vm::DaemonResult& r) {
  if (!r.met_target) {
    // Thrashing: equally-hot pages would only replace each other.  The
    // machine runs the daemon at most once per (stretched) period, so this
    // escalates at most once per period.
    if (env.cfg.ascoma_backoff) back_off(env);  // else: ablation
    return;
  }
  // The pool was refilled, which takes reclaiming cold pages.  Relaxation
  // is hysteretic: it takes several consecutive healthy runs (a program
  // phase change) to step the threshold back down — a single lucky run must
  // not reopen the remapping floodgates (radix would oscillate forever).
  if (thrashing_ && ++success_streak_ >= kRelaxStreak) relax(env);
}

void AsComaPolicy::back_off(PolicyEnv& env) {
  // Raise the threshold one increment, or once it is saturated disable
  // remapping entirely; every back-off also stretches the daemon period
  // geometrically, so sustained pressure converges monotonically to pure
  // CC-NUMA behaviour (paper §2).
  const MachineConfig& cfg = env.cfg;
  thrashing_ = true;
  success_streak_ = 0;
  bool escalated = true;
  if (threshold_ <= cfg.threshold_max - cfg.threshold_increment)
    threshold_ += cfg.threshold_increment;
  else if (relocation_enabled_)
    relocation_enabled_ = false;
  else
    escalated = false;
  // Clamp in double before the cast: the configured factor may be any
  // value >= 1, and a product beyond u64 is undefined.
  const double grown = static_cast<double>(env.daemon_period.value()) *
                       cfg.daemon_backoff_factor;
  env.daemon_period =
      grown < static_cast<double>(cfg.daemon_period_max.value())
          ? std::min<Cycle>(cfg.daemon_period_max,
                            Cycle{static_cast<Cycle::rep>(grown)})
          : cfg.daemon_period_max;
  if (escalated) note_threshold_raise(env);
}

void AsComaPolicy::relax(PolicyEnv& env) {
  // One relaxation step re-enables remapping first, then walks the
  // threshold back down; the thrashing mark clears only at full health.
  const MachineConfig& cfg = env.cfg;
  success_streak_ = 0;
  bool relaxed = true;
  if (!relocation_enabled_)
    relocation_enabled_ = true;
  else if (threshold_ > cfg.refetch_threshold)
    threshold_ = std::max(cfg.refetch_threshold,
                          threshold_ - cfg.threshold_increment);
  else
    relaxed = false;
  env.daemon_period = std::max<Cycle>(
      cfg.daemon_period,
      Cycle{static_cast<Cycle::rep>(
          static_cast<double>(env.daemon_period.value()) /
          cfg.daemon_backoff_factor)});
  if (threshold_ == cfg.refetch_threshold && relocation_enabled_)
    thrashing_ = false;
  if (relaxed) note_threshold_drop(env);
}

}  // namespace ascoma::arch
