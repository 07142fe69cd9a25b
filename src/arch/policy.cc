#include "arch/policy.hh"

#include "arch/ascoma.hh"
#include "arch/ccnuma.hh"
#include "arch/rnuma.hh"
#include "arch/scoma.hh"
#include "arch/vcnuma.hh"
#include "common/check.hh"

namespace ascoma::arch {

bool Policy::should_relocate(PolicyEnv& env, VPageId page,
                             std::uint32_t refetches) {
  (void)env;
  (void)page;
  return relocation_enabled_ && refetches >= threshold_;
}

void Policy::on_daemon_result(PolicyEnv& env, const vm::DaemonResult& r) {
  (void)env;
  (void)r;
}

void Policy::on_page_cache_hit(VPageId page) { (void)page; }

void Policy::on_replacement(PolicyEnv& env, VPageId victim) {
  (void)env;
  (void)victim;
}

void Policy::on_remap_suppressed(PolicyEnv& env) { (void)env; }

void Policy::note_threshold_raise(PolicyEnv& env) {
  ++env.kernel.threshold_raises;
  if (env.probe)
    env.probe->event(obs::EventKind::kThresholdRaise, env.now, env.node,
                     kInvalidPage, threshold_, relocation_enabled_ ? 1 : 0);
}

void Policy::note_threshold_drop(PolicyEnv& env) {
  ++env.kernel.threshold_drops;
  if (env.probe)
    env.probe->event(obs::EventKind::kThresholdDrop, env.now, env.node,
                     kInvalidPage, threshold_, relocation_enabled_ ? 1 : 0);
}

std::unique_ptr<Policy> make_policy(const MachineConfig& cfg) {
  switch (cfg.arch) {
    case ArchModel::kCcNuma: return std::make_unique<CcNumaPolicy>(cfg);
    case ArchModel::kScoma: return std::make_unique<ScomaPolicy>(cfg);
    case ArchModel::kRNuma: return std::make_unique<RNumaPolicy>(cfg);
    case ArchModel::kVcNuma: return std::make_unique<VcNumaPolicy>(cfg);
    case ArchModel::kAsComa: return std::make_unique<AsComaPolicy>(cfg);
  }
  ASCOMA_CHECK_MSG(false, "unknown architecture model");
}

}  // namespace ascoma::arch
