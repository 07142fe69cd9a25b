#include "fault/plan.hh"

#include "common/check.hh"

namespace ascoma::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kJitter: return "jitter";
    case FaultKind::kNack: return "nack";
  }
  return "?";
}

FaultPlan::FaultPlan(const MachineConfig& cfg)
    : seed_(cfg.effective_fault_seed()),
      rng_(cfg.effective_fault_seed()),
      drop_p_(cfg.fault_drop),
      dup_p_(cfg.fault_dup),
      jitter_p_(cfg.fault_jitter),
      jitter_max_(cfg.fault_jitter_cycles),
      enabled_(drop_p_ > 0.0 || dup_p_ > 0.0 || jitter_p_ > 0.0) {}

void FaultPlan::add_rule(const TargetRule& r) {
  ASCOMA_CHECK_MSG(r.begin < r.end, "fault rule window is empty");
  rules_.push_back(r);
  enabled_ = true;
}

bool FaultPlan::rule_matches(const TargetRule& r, FaultKind kind, Cycle now,
                             NodeId src, NodeId dst) const {
  if (r.kind != kind) return false;
  if (now < r.begin || now >= r.end) return false;
  if (r.src != kInvalidNode && r.src != src) return false;
  if (r.dst != kInvalidNode && r.dst != dst) return false;
  return true;
}

FaultDecision FaultPlan::decide(Cycle now, NodeId src, NodeId dst) {
  ++decisions_;
  FaultDecision d;
  for (const TargetRule& r : rules_) {
    if (rule_matches(r, FaultKind::kDrop, now, src, dst)) d.drop = true;
    if (rule_matches(r, FaultKind::kDuplicate, now, src, dst))
      d.duplicate = true;
    if (rule_matches(r, FaultKind::kJitter, now, src, dst) && d.jitter == Cycle{0})
      d.jitter = jitter_max_ == Cycle{0} ? Cycle{1} : jitter_max_;
  }
  // Probabilistic draws happen unconditionally per enabled knob so the RNG
  // stream consumed by one message never depends on rule outcomes.
  if (drop_p_ > 0.0 && rng_.chance(drop_p_)) d.drop = true;
  if (dup_p_ > 0.0 && rng_.chance(dup_p_)) d.duplicate = true;
  if (jitter_p_ > 0.0 && rng_.chance(jitter_p_) && d.jitter == Cycle{0})
    d.jitter = Cycle{rng_.range(1, jitter_max_.value())};
  // A dropped message never reaches the destination: duplication and jitter
  // are moot (the copy dies in the same fabric).
  if (d.drop) {
    d.duplicate = false;
    d.jitter = Cycle{0};
    ++drops_;
    return d;
  }
  if (d.duplicate) ++duplicates_;
  if (d.jitter > Cycle{0}) ++jitters_;
  return d;
}

bool FaultPlan::nack_forced(Cycle now, NodeId home) const {
  for (const TargetRule& r : rules_)
    if (rule_matches(r, FaultKind::kNack, now, r.src, home)) return true;
  return false;
}

void FaultPlan::reset() {
  rng_ = Rng(seed_);
  decisions_ = drops_ = duplicates_ = jitters_ = 0;
}

}  // namespace ascoma::fault
