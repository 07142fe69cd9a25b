#include "check/policy_model.hh"

#include <sstream>
#include <utility>

#include "common/check.hh"

namespace ascoma::check {

// ---- search report ----------------------------------------------------------

std::string ExploreResult::report() const {
  std::ostringstream os;
  if (ok) {
    os << (truncated ? "INCONCLUSIVE (state cap hit)" : "PASS") << ": "
       << states << " states, " << transitions << " transitions, " << finals
       << " final states\n";
    return os.str();
  }
  os << "VIOLATION: " << violation << "\n";
  os << "counterexample (" << trace.size() << " steps):\n";
  for (std::size_t i = 0; i < trace.size(); ++i)
    os << "  " << (i + 1) << ". " << trace[i] << "\n";
  os << "violating state:\n" << final_dump;
  os << "explored " << states << " states, " << transitions
     << " transitions before the violation\n";
  return os.str();
}

// ---- names ------------------------------------------------------------------

const char* to_string(PolicyMutation m) {
  switch (m) {
    case PolicyMutation::kNone: return "none";
    case PolicyMutation::kThresholdNeverRaised: return "threshold-never-raised";
    case PolicyMutation::kPeriodNotLengthened: return "period-not-lengthened";
    case PolicyMutation::kUpgradeWhileDisabled: return "upgrade-while-disabled";
    case PolicyMutation::kUpgradeIgnoresPool: return "upgrade-ignores-pool";
    case PolicyMutation::kThrashingSticky: return "thrashing-sticky";
  }
  return "?";
}

bool parse_policy_mutation(const std::string& name, PolicyMutation* out) {
  for (int i = 0; i < kNumPolicyMutations; ++i) {
    const auto m = static_cast<PolicyMutation>(i);
    if (name == to_string(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

const char* to_string(PageState p) {
  switch (p) {
    case PageState::kUnmapped: return "unmapped";
    case PageState::kNuma: return "CC-NUMA";
    case PageState::kScoma: return "S-COMA";
  }
  return "?";
}

// ---- state ------------------------------------------------------------------

std::uint32_t PolicyState::Node::scoma_count() const {
  std::uint32_t n = 0;
  for (const Page& p : pages)
    if (static_cast<PageState>(p.mode) == PageState::kScoma) ++n;
  return n;
}

std::string PolicyState::encode() const {
  std::string enc;
  enc.reserve(nodes.size() * (6 + 2 * (nodes.empty() ? 0 : nodes[0].pages.size())));
  for (const Node& n : nodes) {
    enc.push_back(static_cast<char>(n.backoff.threshold));
    enc.push_back(static_cast<char>((n.backoff.relocation_enabled ? 1 : 0) |
                                    (n.backoff.thrashing ? 2 : 0) |
                                    (n.backoff.backed_off_once ? 4 : 0)));
    enc.push_back(static_cast<char>(n.backoff.success_streak));
    ASCOMA_CHECK(n.period.value() <= 0xff);
    enc.push_back(static_cast<char>(n.period.value()));
    enc.push_back(static_cast<char>(n.touches_left));
    enc.push_back(static_cast<char>(n.daemon_left));
    for (const Page& p : n.pages) {
      enc.push_back(static_cast<char>(p.mode));
      enc.push_back(static_cast<char>(p.refetches));
    }
  }
  return enc;
}

PolicyState PolicyModel::decode(const std::string& enc) const {
  PolicyState s;
  s.nodes.resize(cfg_.nodes);
  std::size_t i = 0;
  auto next = [&]() -> std::uint8_t {
    ASCOMA_CHECK(i < enc.size());
    return static_cast<std::uint8_t>(enc[i++]);
  };
  for (PolicyState::Node& n : s.nodes) {
    n.backoff.threshold = next();
    const std::uint8_t flags = next();
    n.backoff.relocation_enabled = (flags & 1) != 0;
    n.backoff.thrashing = (flags & 2) != 0;
    n.backoff.backed_off_once = (flags & 4) != 0;
    n.backoff.success_streak = next();
    n.period = Cycle{next()};
    n.touches_left = next();
    n.daemon_left = next();
    n.pages.resize(cfg_.pages_per_node);
    for (PolicyState::Page& p : n.pages) {
      p.mode = next();
      p.refetches = next();
    }
  }
  ASCOMA_CHECK(i == enc.size());
  return s;
}

std::string PolicyModel::describe(const PolicyState& s) const {
  std::ostringstream os;
  for (std::size_t n = 0; n < s.nodes.size(); ++n) {
    const PolicyState::Node& nd = s.nodes[n];
    os << "  node" << n << ": threshold=" << nd.backoff.threshold
       << (nd.backoff.threshold == set_.initial_threshold ? " (initial)"
           : nd.backoff.threshold >= set_.threshold_max   ? " (max)"
                                                          : " (raised)")
       << " remap=" << (nd.backoff.relocation_enabled ? "enabled" : "DISABLED")
       << (nd.backoff.thrashing ? " thrashing" : " healthy")
       << " period=" << nd.period.value()
       << " streak=" << nd.backoff.success_streak
       << " pool=" << (static_cast<std::int64_t>(cfg_.pool_frames) -
                       static_cast<std::int64_t>(nd.scoma_count()))
       << "/" << cfg_.pool_frames << " free"
       << " budgets(touch=" << static_cast<int>(nd.touches_left)
       << ",daemon=" << static_cast<int>(nd.daemon_left) << ")\n";
    for (std::size_t p = 0; p < nd.pages.size(); ++p) {
      os << "    page" << p << ": "
         << to_string(static_cast<PageState>(nd.pages[p].mode));
      if (static_cast<PageState>(nd.pages[p].mode) == PageState::kNuma)
        os << " (refetches " << static_cast<int>(nd.pages[p].refetches) << "/"
           << nd.backoff.threshold << ")";
      os << "\n";
    }
  }
  return os.str();
}

// ---- actions ----------------------------------------------------------------

std::string PolicyAction::format() const {
  std::ostringstream os;
  os << "node" << static_cast<int>(node);
  switch (type) {
    case Type::kTouch:
      os << " touches page" << static_cast<int>(page) << ": ";
      switch (outcome) {
        case Outcome::kMapScoma: os << "first touch -> mapped S-COMA"; break;
        case Outcome::kMapNuma: os << "first touch -> mapped CC-NUMA"; break;
        case Outcome::kScomaHit: os << "S-COMA page-cache hit"; break;
        case Outcome::kRefetch: os << "CC-NUMA refetch (below threshold)"; break;
        case Outcome::kUpgrade: os << "threshold reached -> upgraded to S-COMA"; break;
        case Outcome::kUpgradeDenied:
          os << "threshold reached, upgrade denied (remapping disabled)";
          break;
        case Outcome::kSuppressed:
          os << "threshold reached, upgrade suppressed (pool drained)";
          break;
        default: os << "?"; break;
      }
      break;
    case Type::kDaemonFail:
      os << ": pageout daemon misses its free target ";
      os << (outcome == Outcome::kSamePeriod
                 ? "(within the back-off period: absorbed)"
                 : "(a full period after the last back-off)");
      break;
    case Type::kDaemonOk:
      os << ": pageout daemon meets its target ";
      if (outcome == Outcome::kReclaim)
        os << "(reclaims S-COMA page" << static_cast<int>(page)
           << " -> CC-NUMA)";
      else
        os << "(cold pages found elsewhere)";
      break;
  }
  return os.str();
}

// ---- model ------------------------------------------------------------------

std::string PolicyCheckConfig::range_error() const {
  if (nodes < 1 || nodes > 4) return "nodes must be 1..4";
  if (pages_per_node < 1 || pages_per_node > 4) return "pages must be 1..4";
  if (pool_frames < 1 || pool_frames > 3) return "frames must be 1..3";
  // The per-node budgets are one byte each in the state encoding.
  if (touches > 0xff) return "touches must be at most 255";
  if (daemon_runs > 0xff) return "daemon-runs must be at most 255";
  return "";
}

PolicyModel::PolicyModel(const PolicyCheckConfig& cfg)
    : cfg_(cfg), set_(cfg.settings()) {
  const std::string why = cfg_.range_error();
  ASCOMA_CHECK_MSG(why.empty(), why);
}

PolicyState PolicyModel::initial() const {
  PolicyState s;
  s.nodes.resize(cfg_.nodes);
  for (PolicyState::Node& n : s.nodes) {
    n.backoff.threshold = set_.initial_threshold;
    n.period = set_.initial_period;
    n.pages.resize(cfg_.pages_per_node);
    n.touches_left = static_cast<std::uint8_t>(cfg_.touches);
    n.daemon_left = static_cast<std::uint8_t>(cfg_.daemon_runs);
  }
  return s;
}

bool PolicyModel::final_state(const PolicyState& s) const {
  for (const PolicyState::Node& n : s.nodes)
    if (n.touches_left != 0 || n.daemon_left != 0) return false;
  return true;
}

void PolicyModel::successors(const PolicyState& s,
                             std::vector<PolicySuccessor>* out) const {
  out->clear();
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    const bool any = node_steps(s, n, out);
    // Nodes share no policy state, so exploring them in index order is a
    // sound persistent set for the per-node properties (header comment).
    if (cfg_.ordered && any) return;
  }
}

bool PolicyModel::node_steps(const PolicyState& s, std::uint32_t n,
                             std::vector<PolicySuccessor>* out) const {
  const std::size_t before = out->size();
  const PolicyState::Node& nd = s.nodes[n];
  if (nd.touches_left > 0)
    for (std::uint32_t p = 0; p < cfg_.pages_per_node; ++p)
      apply_touch(s, n, p, out);
  if (nd.daemon_left > 0) {
    apply_daemon_fail(s, n, /*period_elapsed=*/true, out);
    // Within the rate-limit period only matters once a back-off happened.
    if (nd.backoff.backed_off_once)
      apply_daemon_fail(s, n, /*period_elapsed=*/false, out);
    apply_daemon_ok(s, n, /*victim=*/-1, out);
    for (std::uint32_t p = 0; p < cfg_.pages_per_node; ++p)
      if (static_cast<PageState>(nd.pages[p].mode) == PageState::kScoma)
        apply_daemon_ok(s, n, static_cast<int>(p), out);
  }
  return out->size() != before;
}

void PolicyModel::apply_touch(const PolicyState& s, std::uint32_t n,
                              std::uint32_t p,
                              std::vector<PolicySuccessor>* out) const {
  PolicySuccessor suc;
  suc.state = s;
  suc.action.type = PolicyAction::Type::kTouch;
  suc.action.node = static_cast<std::uint8_t>(n);
  suc.action.page = static_cast<std::uint8_t>(p);
  PolicyState::Node& nd = suc.state.nodes[n];
  PolicyState::Page& pg = nd.pages[p];
  --nd.touches_left;

  arch::BackoffKernel kernel(set_);
  kernel.restore(nd.backoff);
  const std::uint32_t free_frames = cfg_.pool_frames - nd.scoma_count();

  switch (static_cast<PageState>(pg.mode)) {
    case PageState::kUnmapped:
      // AsComaPolicy::initial_mode: S-COMA-first while the pool lasts and
      // the node is not in back-off.
      if (!kernel.thrashing() && free_frames > 0) {
        pg.mode = static_cast<std::uint8_t>(PageState::kScoma);
        suc.action.outcome = PolicyAction::Outcome::kMapScoma;
      } else {
        pg.mode = static_cast<std::uint8_t>(PageState::kNuma);
        suc.action.outcome = PolicyAction::Outcome::kMapNuma;
      }
      break;
    case PageState::kScoma:
      suc.action.outcome = PolicyAction::Outcome::kScomaHit;
      break;
    case PageState::kNuma: {
      if (pg.refetches < set_.threshold_max)
        ++pg.refetches;  // saturating: threshold never exceeds the max
      if (pg.refetches < kernel.threshold()) {
        suc.action.outcome = PolicyAction::Outcome::kRefetch;
        break;
      }
      // Threshold reached: the fault handler asks should_relocate.
      const bool allowed =
          kernel.relocation_enabled() ||
          cfg_.mutation == PolicyMutation::kUpgradeWhileDisabled;
      if (!allowed) {
        suc.action.outcome = PolicyAction::Outcome::kUpgradeDenied;
        break;
      }
      const bool need_frame = cfg_.mutation != PolicyMutation::kUpgradeIgnoresPool;
      if (free_frames == 0 && need_frame) {
        // AsComaPolicy::on_remap_suppressed: a direct thrash signal.
        kernel.mark_thrashing();
        nd.backoff = kernel.state();
        suc.action.outcome = PolicyAction::Outcome::kSuppressed;
        break;
      }
      if (!kernel.relocation_enabled())
        suc.state.violation =
            "page upgraded to S-COMA while remapping is disabled";
      pg.mode = static_cast<std::uint8_t>(PageState::kScoma);
      pg.refetches = 0;
      suc.action.outcome = PolicyAction::Outcome::kUpgrade;
      break;
    }
  }
  out->push_back(std::move(suc));
}

void PolicyModel::apply_daemon_fail(const PolicyState& s, std::uint32_t n,
                                    bool period_elapsed,
                                    std::vector<PolicySuccessor>* out) const {
  PolicySuccessor suc;
  suc.state = s;
  suc.action.type = PolicyAction::Type::kDaemonFail;
  suc.action.outcome = period_elapsed ? PolicyAction::Outcome::kNewPeriod
                                      : PolicyAction::Outcome::kSamePeriod;
  suc.action.node = static_cast<std::uint8_t>(n);
  PolicyState::Node& nd = suc.state.nodes[n];
  --nd.daemon_left;

  const arch::BackoffState old = nd.backoff;
  const Cycle old_period = nd.period;
  arch::BackoffKernel kernel(set_);
  kernel.restore(old);
  kernel.clear_streak();  // AsComaPolicy::on_daemon_result, failure path
  const arch::BackoffStep step = kernel.on_pressure(period_elapsed, &nd.period);
  arch::BackoffState now = kernel.state();

  // Seeded bugs: drop one of the escalation's effects.
  if (cfg_.mutation == PolicyMutation::kThresholdNeverRaised)
    now.threshold = old.threshold;
  if (cfg_.mutation == PolicyMutation::kPeriodNotLengthened)
    nd.period = old_period;
  nd.backoff = now;

  auto fail = [&](const char* why) {
    if (suc.state.violation.empty()) suc.state.violation = why;
  };
  if (step.accepted) {
    // Back-off monotonicity: pressure never relaxes anything.
    if (now.threshold < old.threshold)
      fail("back-off lowered the refetch threshold under pressure");
    if (!old.relocation_enabled && now.relocation_enabled)
      fail("back-off re-enabled remapping under pressure");
    if (nd.period < old_period)
      fail("back-off shortened the daemon period under pressure");
    // Escalation progress: until fully converged to CC-NUMA (threshold at
    // max, remapping disabled), an accepted pressure step must raise the
    // threshold or disable remapping.  This is what makes convergence under
    // sustained reclaim failure inevitable.
    const bool was_converged =
        old.threshold >= set_.threshold_max && !old.relocation_enabled;
    const bool raised = now.threshold > old.threshold;
    const bool disabled = old.relocation_enabled && !now.relocation_enabled;
    if (!was_converged && !raised && !disabled)
      fail("accepted back-off neither raised the threshold nor disabled "
           "remapping (no convergence to CC-NUMA)");
    // Period monotonicity until saturation.
    if (old_period < set_.period_max && !(nd.period > old_period))
      fail("accepted back-off did not lengthen the daemon period");
  }
  if (!nd.backoff.thrashing)
    fail("daemon failure did not mark the node thrashing");
  out->push_back(std::move(suc));
}

void PolicyModel::apply_daemon_ok(const PolicyState& s, std::uint32_t n,
                                  int victim,
                                  std::vector<PolicySuccessor>* out) const {
  PolicySuccessor suc;
  suc.state = s;
  suc.action.type = PolicyAction::Type::kDaemonOk;
  suc.action.node = static_cast<std::uint8_t>(n);
  PolicyState::Node& nd = suc.state.nodes[n];
  --nd.daemon_left;
  if (victim >= 0) {
    // The daemon reclaims an S-COMA frame: the page falls back to CC-NUMA
    // (AsComaPolicy::on_replacement) and must re-earn any upgrade.
    PolicyState::Page& pg = nd.pages[static_cast<std::size_t>(victim)];
    pg.mode = static_cast<std::uint8_t>(PageState::kNuma);
    pg.refetches = 0;
    suc.action.outcome = PolicyAction::Outcome::kReclaim;
    suc.action.page = static_cast<std::uint8_t>(victim);
  } else {
    suc.action.outcome = PolicyAction::Outcome::kNoVictim;
  }

  const arch::BackoffState old = nd.backoff;
  const Cycle old_period = nd.period;
  arch::BackoffKernel kernel(set_);
  kernel.restore(old);
  const arch::BackoffStep step =
      kernel.on_healthy(/*cold_evidence=*/true, &nd.period);
  arch::BackoffState now = kernel.state();

  if (cfg_.mutation == PolicyMutation::kThrashingSticky && old.thrashing)
    now.thrashing = true;
  nd.backoff = now;

  auto fail = [&](const char* why) {
    if (suc.state.violation.empty()) suc.state.violation = why;
  };
  if (step.accepted) {
    // Recovery monotonicity: a healthy step never escalates.
    if (now.threshold > old.threshold)
      fail("healthy reclaim raised the refetch threshold");
    if (old.relocation_enabled && !now.relocation_enabled)
      fail("healthy reclaim disabled remapping");
    if (nd.period > old_period)
      fail("healthy reclaim lengthened the daemon period");
    // Relaxation progress: until back at full health, each completed streak
    // must re-enable remapping or lower the threshold.
    const bool was_healthy =
        old.threshold <= set_.initial_threshold && old.relocation_enabled;
    if (!was_healthy && !step.relaxed)
      fail("recovery stalled: a completed healthy streak made no relaxation "
           "progress");
    // Full health must clear the back-off so S-COMA-first mapping resumes.
    if (now.threshold <= set_.initial_threshold && now.relocation_enabled &&
        now.thrashing)
      fail("recovered to the initial threshold with remapping enabled but "
           "still marked thrashing (S-COMA-first never resumes)");
  }
  out->push_back(std::move(suc));
}

std::string PolicyModel::check(const PolicyState& s) const {
  if (!s.violation.empty()) return s.violation;
  for (std::size_t n = 0; n < s.nodes.size(); ++n) {
    const PolicyState::Node& nd = s.nodes[n];
    std::ostringstream os;
    if (nd.scoma_count() > cfg_.pool_frames) {
      os << "node" << n << ": page-frame pool overcommitted ("
         << nd.scoma_count() << " S-COMA pages, " << cfg_.pool_frames
         << " frames)";
      return os.str();
    }
    if (nd.backoff.threshold < set_.initial_threshold ||
        nd.backoff.threshold > set_.threshold_max) {
      os << "node" << n << ": refetch threshold " << nd.backoff.threshold
         << " outside [" << set_.initial_threshold << ", "
         << set_.threshold_max << "]";
      return os.str();
    }
    if (nd.period < set_.initial_period || nd.period > set_.period_max) {
      os << "node" << n << ": daemon period " << nd.period.value()
         << " outside [" << set_.initial_period.value() << ", "
         << set_.period_max.value() << "]";
      return os.str();
    }
    if (!nd.backoff.relocation_enabled && !nd.backoff.thrashing) {
      os << "node" << n
         << ": remapping disabled on a node not marked thrashing";
      return os.str();
    }
  }
  return {};
}

}  // namespace ascoma::check
