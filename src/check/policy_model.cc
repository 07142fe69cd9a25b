#include "check/policy_model.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "arch/ascoma.hh"
#include "common/check.hh"
#include "vm/page_cache.hh"

namespace ascoma::check {

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

MachineConfig policy_check_machine() {
  MachineConfig mc;
  mc.arch = ArchModel::kAsComa;
  mc.refetch_threshold = 1;
  mc.threshold_increment = 1;
  mc.threshold_max = 2;
  mc.daemon_period = Cycle{4};
  mc.daemon_period_max = Cycle{16};
  mc.daemon_backoff_factor = 2.0;
  return mc;
}

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

namespace {

const char* mode_name(PageMode m) {
  switch (m) {
    case PageMode::kUnmapped: return "unmapped";
    case PageMode::kNuma: return "CC-NUMA";
    case PageMode::kScoma: return "S-COMA";
    case PageMode::kHome: break;
  }
  return "?";
}

// ---- state ------------------------------------------------------------------

struct PolicyState {
  struct Page {
    PageMode mode = PageMode::kUnmapped;
    std::uint8_t refetches = 0;  ///< saturating; meaningful in kNuma
  };
  struct Node {
    arch::AsComaPolicy::State policy;
    Cycle period{0};
    std::vector<Page> pages;
    std::uint8_t touches_left = 0;
    std::uint8_t daemon_left = 0;

    std::uint32_t scoma_count() const {
      return static_cast<std::uint32_t>(
          std::count_if(pages.begin(), pages.end(), [](const Page& p) {
            return p.mode == PageMode::kScoma;
          }));
    }
  };
  std::vector<Node> nodes;

  /// Violation raised while *generating* this state (a transition assertion
  /// failed).  Not part of encode(); PolicyModel::check() reports it first.
  std::string violation;

  /// Canonical byte encoding, the visited-set key; PolicyModel::decode()
  /// inverts it.
  std::string encode() const {
    std::string enc;
    for (const Node& n : nodes) {
      enc.push_back(static_cast<char>(n.policy.threshold));
      enc.push_back(static_cast<char>((n.policy.relocation_enabled ? 1 : 0) |
                                      (n.policy.thrashing ? 2 : 0)));
      enc.push_back(static_cast<char>(n.policy.success_streak));
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
};

// ---- transitions ------------------------------------------------------------

/// A transition label.  The outcome names what the policy decided, so
/// counterexample traces read as policy states, not raw ints.
struct PolicyAction {
  enum class Type : std::uint8_t { kTouch, kDaemonFail, kDaemonOk };
  enum class Outcome : std::uint8_t {
    kNone,
    kMapScoma,       ///< first touch -> S-COMA
    kMapNuma,        ///< first touch -> CC-NUMA
    kScomaHit,       ///< page-cache hit on an S-COMA mapping
    kRefetch,        ///< CC-NUMA refetch below the threshold
    kUpgrade,        ///< threshold reached -> remapped to S-COMA
    kUpgradeDenied,  ///< threshold reached but should_relocate said no
    kSuppressed,     ///< upgrade wanted but the pool is drained
    kReclaim,        ///< healthy run downgrades an S-COMA victim
    kNoVictim,       ///< healthy run reclaims an untracked page
  };

  Type type = Type::kTouch;
  Outcome outcome = Outcome::kNone;
  std::uint32_t node = 0;
  std::uint32_t page = 0;  ///< touched page or reclaim victim

  std::string format() const {
    std::ostringstream os;
    os << "node" << node;
    switch (type) {
      case Type::kTouch:
        os << " touches page" << page << ": ";
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
        os << ": pageout daemon misses its free target";
        break;
      case Type::kDaemonOk:
        os << ": pageout daemon meets its target ";
        if (outcome == Outcome::kReclaim)
          os << "(reclaims S-COMA page" << page << " -> CC-NUMA)";
        else
          os << "(cold pages found elsewhere)";
        break;
    }
    return os.str();
  }
};

struct Successor {
  PolicyState state;
  PolicyAction action;
};

/// The simulator's objects for one node of one explored state, wired as
/// core::Machine wires them: a real AsComaPolicy restored to the node's
/// state and a real PageCache with one frame allocated per S-COMA page.
struct NodeSim {
  NodeSim(const MachineConfig& mc, std::uint32_t frames,
          const PolicyState::Node& nd, std::uint32_t n)
      : policy(mc), cache(frames), period(nd.period),
        env{mc, NodeId{n}, cache, stats, period} {
    policy.restore(nd.policy);
    for (std::uint32_t i = 0; i < nd.scoma_count(); ++i) cache.alloc();
  }

  /// Copy the policy's state and the daemon period back into `nd`.
  void store(PolicyState::Node* nd) const {
    nd->policy = policy.state();
    nd->period = period;
  }

  arch::AsComaPolicy policy;
  vm::PageCache cache;
  KernelStats stats;
  Cycle period;
  arch::PolicyEnv env;
};

/// The node-level transition system over PolicyState.
class PolicyModel {
 public:
  explicit PolicyModel(const PolicyCheckConfig& cfg)
      : cfg_(cfg), mc_(policy_check_machine()) {
    ASCOMA_CHECK_MSG(cfg.nodes >= 1 && cfg.nodes <= 4 &&
                         cfg.pages_per_node >= 1 && cfg.pages_per_node <= 4 &&
                         cfg.pool_frames >= 1 && cfg.pool_frames <= 3 &&
                         cfg.touches <= 0xff && cfg.daemon_runs <= 0xff,
                     "policy check config out of range");
  }

  PolicyState initial() const {
    PolicyState s;
    s.nodes.resize(cfg_.nodes);
    for (PolicyState::Node& n : s.nodes) {
      n.policy = arch::AsComaPolicy(mc_).state();
      n.period = mc_.daemon_period;
      n.pages.resize(cfg_.pages_per_node);
      n.touches_left = static_cast<std::uint8_t>(cfg_.touches);
      n.daemon_left = static_cast<std::uint8_t>(cfg_.daemon_runs);
    }
    return s;
  }

  PolicyState decode(const std::string& enc) const {
    PolicyState s;
    s.nodes.resize(cfg_.nodes);
    std::size_t i = 0;
    auto next = [&]() -> std::uint8_t {
      ASCOMA_CHECK(i < enc.size());
      return static_cast<std::uint8_t>(enc[i++]);
    };
    for (PolicyState::Node& n : s.nodes) {
      n.policy.threshold = next();
      const std::uint8_t flags = next();
      n.policy.relocation_enabled = (flags & 1) != 0;
      n.policy.thrashing = (flags & 2) != 0;
      n.policy.success_streak = next();
      n.period = Cycle{next()};
      n.touches_left = next();
      n.daemon_left = next();
      n.pages.resize(cfg_.pages_per_node);
      for (PolicyState::Page& p : n.pages) {
        p.mode = static_cast<PageMode>(next());
        p.refetches = next();
      }
    }
    ASCOMA_CHECK(i == enc.size());
    return s;
  }

  void successors(const PolicyState& s, std::vector<Successor>* out) const {
    out->clear();
    for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
      const PolicyState::Node& nd = s.nodes[n];
      if (nd.touches_left > 0)
        for (std::uint32_t p = 0; p < cfg_.pages_per_node; ++p)
          touch(s, n, p, out);
      if (nd.daemon_left > 0) {
        daemon_fail(s, n, out);
        daemon_ok(s, n, /*victim=*/-1, out);
        for (std::uint32_t p = 0; p < cfg_.pages_per_node; ++p)
          if (nd.pages[p].mode == PageMode::kScoma)
            daemon_ok(s, n, static_cast<int>(p), out);
      }
      // Nodes share no policy state: index order is a sound persistent set
      // for the per-node properties (header comment).
      if (cfg_.ordered && !out->empty()) return;
    }
  }

  std::string check(const PolicyState& s) const {
    if (!s.violation.empty()) return s.violation;
    for (std::size_t n = 0; n < s.nodes.size(); ++n) {
      const PolicyState::Node& nd = s.nodes[n];
      std::ostringstream os;
      os << "node" << n << ": ";
      if (nd.scoma_count() > cfg_.pool_frames) {
        os << "page-frame pool overcommitted (" << nd.scoma_count()
           << " S-COMA pages, " << cfg_.pool_frames << " frames)";
      } else if (nd.policy.threshold < mc_.refetch_threshold ||
                 nd.policy.threshold > mc_.threshold_max) {
        os << "refetch threshold " << nd.policy.threshold << " outside ["
           << mc_.refetch_threshold << ", " << mc_.threshold_max << "]";
      } else if (nd.period < mc_.daemon_period ||
                 nd.period > mc_.daemon_period_max) {
        os << "daemon period " << nd.period.value() << " outside ["
           << mc_.daemon_period.value() << ", "
           << mc_.daemon_period_max.value() << "]";
      } else if (!nd.policy.relocation_enabled && !nd.policy.thrashing) {
        os << "remapping disabled on a node not marked thrashing";
      } else {
        continue;
      }
      return os.str();
    }
    return {};
  }

  std::string describe(const PolicyState& s) const {
    std::ostringstream os;
    for (std::size_t n = 0; n < s.nodes.size(); ++n) {
      const PolicyState::Node& nd = s.nodes[n];
      const std::uint32_t threshold = nd.policy.threshold;
      os << "  node" << n << ": threshold=" << threshold
         << (threshold == mc_.refetch_threshold ? " (initial)"
             : threshold >= mc_.threshold_max   ? " (max)"
                                                : " (raised)")
         << " remap=" << (nd.policy.relocation_enabled ? "enabled" : "DISABLED")
         << (nd.policy.thrashing ? " thrashing" : " healthy")
         << " period=" << nd.period.value()
         << " streak=" << nd.policy.success_streak
         << " pool=" << (static_cast<std::int64_t>(cfg_.pool_frames) -
                         static_cast<std::int64_t>(nd.scoma_count()))
         << "/" << cfg_.pool_frames << " free"
         << " budgets(touch=" << static_cast<int>(nd.touches_left)
         << ",daemon=" << static_cast<int>(nd.daemon_left) << ")\n";
      for (std::size_t p = 0; p < nd.pages.size(); ++p) {
        os << "    page" << p << ": " << mode_name(nd.pages[p].mode);
        if (nd.pages[p].mode == PageMode::kNuma)
          os << " (refetches " << static_cast<int>(nd.pages[p].refetches)
             << "/" << threshold << ")";
        os << "\n";
      }
    }
    return os.str();
  }

 private:
  static void fail(Successor* suc, const char* why) {
    if (suc->state.violation.empty()) suc->state.violation = why;
  }

  void touch(const PolicyState& s, std::uint32_t n, std::uint32_t p,
             std::vector<Successor>* out) const {
    using Outcome = PolicyAction::Outcome;
    Successor suc{s, {PolicyAction::Type::kTouch, Outcome::kNone, n, p}};
    PolicyState::Node& nd = suc.state.nodes[n];
    PolicyState::Page& pg = nd.pages[p];
    --nd.touches_left;
    NodeSim sim(mc_, cfg_.pool_frames, nd, n);
    Outcome& outcome = suc.action.outcome;

    switch (pg.mode) {
      case PageMode::kUnmapped: {
        const bool had_frame = sim.cache.free_frames() > 0;
        pg.mode = sim.policy.initial_mode(sim.env);
        if (pg.mode == PageMode::kScoma) {
          outcome = Outcome::kMapScoma;
          if (nd.policy.thrashing)
            fail(&suc, "first touch mapped S-COMA on a node marked thrashing");
          if (!had_frame)
            fail(&suc, "first touch mapped S-COMA with no free frame");
        } else {
          outcome = Outcome::kMapNuma;
        }
        break;
      }
      case PageMode::kScoma:
        sim.policy.on_page_cache_hit(VPageId{p});
        outcome = Outcome::kScomaHit;
        break;
      default: {
        if (pg.refetches < mc_.threshold_max)
          ++pg.refetches;  // saturating: the threshold never exceeds the max
        const bool reached = pg.refetches >= sim.policy.threshold();
        const bool relocate =
            sim.policy.should_relocate(sim.env, VPageId{p}, pg.refetches) ||
            (reached && cfg_.mutation == PolicyMutation::kUpgradeWhileDisabled);
        if (!relocate) {
          outcome = reached ? Outcome::kUpgradeDenied : Outcome::kRefetch;
          break;
        }
        if (!sim.cache.alloc() &&
            cfg_.mutation != PolicyMutation::kUpgradeIgnoresPool) {
          sim.policy.on_remap_suppressed(sim.env);
          outcome = Outcome::kSuppressed;
          break;
        }
        if (!sim.policy.relocation_enabled())
          fail(&suc, "page upgraded to S-COMA while remapping is disabled");
        pg.mode = PageMode::kScoma;
        pg.refetches = 0;
        outcome = Outcome::kUpgrade;
        break;
      }
    }
    sim.store(&nd);
    out->push_back(std::move(suc));
  }

  void daemon_fail(const PolicyState& s, std::uint32_t n,
                   std::vector<Successor>* out) const {
    Successor suc{s, {PolicyAction::Type::kDaemonFail,
                      PolicyAction::Outcome::kNone, n, 0}};
    PolicyState::Node& nd = suc.state.nodes[n];
    --nd.daemon_left;
    const arch::AsComaPolicy::State old = nd.policy;
    const Cycle old_period = nd.period;
    NodeSim sim(mc_, cfg_.pool_frames, nd, n);
    sim.policy.on_daemon_result(sim.env, vm::DaemonResult{});
    sim.store(&nd);
    if (cfg_.mutation == PolicyMutation::kThresholdNeverRaised)
      nd.policy.threshold = old.threshold;
    if (cfg_.mutation == PolicyMutation::kPeriodNotLengthened)
      nd.period = old_period;

    const arch::AsComaPolicy::State& now = nd.policy;
    // Back-off monotonicity: pressure never relaxes anything.
    if (now.threshold < old.threshold)
      fail(&suc, "back-off lowered the refetch threshold under pressure");
    if (!old.relocation_enabled && now.relocation_enabled)
      fail(&suc, "back-off re-enabled remapping under pressure");
    if (nd.period < old_period)
      fail(&suc, "back-off shortened the daemon period under pressure");
    // Escalation progress: until fully converged to CC-NUMA (threshold at
    // max, remapping disabled), a pressure step must raise the threshold or
    // disable remapping.  This is what makes convergence under sustained
    // reclaim failure inevitable.
    const bool was_converged =
        old.threshold >= mc_.threshold_max && !old.relocation_enabled;
    const bool raised = now.threshold > old.threshold;
    const bool disabled = old.relocation_enabled && !now.relocation_enabled;
    if (!was_converged && !raised && !disabled)
      fail(&suc, "back-off neither raised the threshold nor disabled "
                 "remapping (no convergence to CC-NUMA)");
    if (old_period < mc_.daemon_period_max && !(nd.period > old_period))
      fail(&suc, "back-off did not lengthen the daemon period");
    if (!now.thrashing)
      fail(&suc, "daemon failure did not mark the node thrashing");
    out->push_back(std::move(suc));
  }

  void daemon_ok(const PolicyState& s, std::uint32_t n, int victim,
                 std::vector<Successor>* out) const {
    Successor suc{s, {PolicyAction::Type::kDaemonOk,
                      PolicyAction::Outcome::kNoVictim, n, 0}};
    PolicyState::Node& nd = suc.state.nodes[n];
    --nd.daemon_left;
    if (victim >= 0) {
      // The reclaimed page falls back to CC-NUMA (Machine::evict_scoma_page)
      // and must re-earn any upgrade; its frame returns to the pool.
      suc.action.outcome = PolicyAction::Outcome::kReclaim;
      suc.action.page = static_cast<std::uint32_t>(victim);
      nd.pages[suc.action.page] = PolicyState::Page{PageMode::kNuma, 0};
    }
    const arch::AsComaPolicy::State old = nd.policy;
    const Cycle old_period = nd.period;
    NodeSim sim(mc_, cfg_.pool_frames, nd, n);
    if (victim >= 0) sim.policy.on_replacement(sim.env, VPageId{suc.action.page});
    // A run meets its target only by reclaiming; without a tracked victim
    // the reclaimed page is one this node's model does not follow.
    vm::DaemonResult r;
    r.reclaimed = 1;
    r.met_target = true;
    sim.policy.on_daemon_result(sim.env, r);
    sim.store(&nd);
    if (cfg_.mutation == PolicyMutation::kThrashingSticky && old.thrashing)
      nd.policy.thrashing = true;

    const arch::AsComaPolicy::State& now = nd.policy;
    // Recovery monotonicity: a healthy run never escalates.
    if (now.threshold > old.threshold)
      fail(&suc, "healthy reclaim raised the refetch threshold");
    if (old.relocation_enabled && !now.relocation_enabled)
      fail(&suc, "healthy reclaim disabled remapping");
    if (nd.period > old_period)
      fail(&suc, "healthy reclaim lengthened the daemon period");
    // A thrashing node's streak restarts only when it completes.
    const bool completed = old.thrashing && now.success_streak == 0;
    if (completed) {
      // Relaxation progress: until back at full health, each completed
      // streak must re-enable remapping or lower the threshold.
      const bool was_healthy =
          old.threshold <= mc_.refetch_threshold && old.relocation_enabled;
      const bool relaxed = now.threshold < old.threshold ||
                           (!old.relocation_enabled && now.relocation_enabled);
      if (!was_healthy && !relaxed)
        fail(&suc, "recovery stalled: a completed healthy streak made no "
                   "relaxation progress");
      // Full health must clear the back-off so S-COMA-first mapping resumes.
      if (now.threshold <= mc_.refetch_threshold && now.relocation_enabled &&
          now.thrashing)
        fail(&suc, "recovered to the initial threshold with remapping "
                   "enabled but still marked thrashing (S-COMA-first never "
                   "resumes)");
    }
    out->push_back(std::move(suc));
  }

  PolicyCheckConfig cfg_;
  MachineConfig mc_;
};

}  // namespace

ExploreResult explore(const PolicyCheckConfig& cfg) {
  constexpr std::size_t kMaxStates = 2'000'000;
  const PolicyModel model(cfg);
  ExploreResult res;
  // How each visited state was reached, in BFS order, so the frontier is
  // the tail of `seen`.  `enc` points into the node-based visited map.
  struct Visit {
    std::uint32_t parent;
    PolicyAction action;
    const std::string* enc;
  };
  std::unordered_map<std::string, std::uint32_t> visited;
  std::vector<Visit> seen;
  auto trace_to = [&](std::uint32_t idx) {
    std::vector<std::string> steps;
    for (; seen[idx].parent != idx; idx = seen[idx].parent)
      steps.push_back(seen[idx].action.format());
    std::reverse(steps.begin(), steps.end());
    return steps;
  };
  auto violation = [&](std::string why, std::vector<std::string> trace,
                       const PolicyState& s) {
    res.ok = false;
    res.violation = std::move(why);
    res.trace = std::move(trace);
    res.final_dump = model.describe(s);
    res.states = seen.size();
    return res;
  };

  const PolicyState init = model.initial();
  if (std::string why = model.check(init); !why.empty())
    return violation(std::move(why), {}, init);
  seen.push_back({0, {}, &visited.emplace(init.encode(), 0).first->first});

  std::vector<Successor> sucs;
  for (std::uint32_t idx = 0; idx < seen.size(); ++idx) {
    const PolicyState s = model.decode(*seen[idx].enc);
    model.successors(s, &sucs);
    if (sucs.empty()) ++res.finals;  // every budget spent
    for (const Successor& suc : sucs) {
      ++res.transitions;
      if (std::string why = model.check(suc.state); !why.empty()) {
        std::vector<std::string> trace = trace_to(idx);
        trace.push_back(suc.action.format());
        return violation(std::move(why), std::move(trace), suc.state);
      }
      const auto [it, fresh] = visited.emplace(
          suc.state.encode(), static_cast<std::uint32_t>(seen.size()));
      if (!fresh) continue;
      seen.push_back({idx, suc.action, &it->first});
      if (seen.size() >= kMaxStates) {
        res.truncated = true;
        res.states = seen.size();
        return res;
      }
    }
  }
  res.states = seen.size();
  return res;
}

}  // namespace ascoma::check
