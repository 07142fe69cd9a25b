#include "arch/ascoma.hh"

namespace ascoma::arch {

PageMode AsComaPolicy::initial_mode(PolicyEnv& env) {
  // S-COMA-preferred while the pool lasts; CC-NUMA once it drains or while
  // the node has concluded local memory cannot hold the working set.
  if (!env.cfg.ascoma_scoma_first) return PageMode::kNuma;
  if (!kernel_.thrashing() && env.page_cache.free_frames() > 0)
    return PageMode::kScoma;
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
  kernel_.mark_thrashing();
}

void AsComaPolicy::on_daemon_result(PolicyEnv& env, const vm::DaemonResult& r) {
  if (!r.met_target) {
    // Thrashing: equally-hot pages would only replace each other.  The
    // machine runs the daemon at most once per (stretched) period, so this
    // escalates at most once per period.
    if (!env.cfg.ascoma_backoff) return;  // ablation: back-off disabled
    const BackoffStep step = kernel_.on_pressure(&env.daemon_period);
    sync_from_kernel();
    if (step.escalated) note_threshold_raise(env);
    return;
  }

  // The pool was refilled.  Relaxation is hysteretic: it takes several
  // consecutive healthy runs that found genuinely cold pages (a program
  // phase change) to step the threshold back down — a single lucky run must
  // not reopen the remapping floodgates (radix would oscillate forever).
  const bool cold_evidence =
      r.reclaimed != 0 && r.cold_pages_seen >= r.reclaimed;
  const BackoffStep step = kernel_.on_healthy(cold_evidence, &env.daemon_period);
  sync_from_kernel();
  if (step.relaxed) note_threshold_drop(env);
}

}  // namespace ascoma::arch
