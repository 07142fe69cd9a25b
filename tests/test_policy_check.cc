// Regression tests for the AS-COMA policy checker (src/check/policy_model.*),
// which steps the simulator's own arch::AsComaPolicy.  Three claims are
// pinned down:
//
//   1. the pristine policy satisfies every checked property on the 2-node /
//      <=4-page configurations;
//   2. every seeded policy mutation is caught, with a BFS-minimal
//      counterexample of at most 8 steps;
//   3. counterexample traces and state dumps speak in policy vocabulary
//      (mapping modes, thresholds, daemon verdicts), not raw integers.

#include "check/policy_model.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/ascoma.hh"

namespace ascoma::check {
namespace {

// ---- pristine ---------------------------------------------------------------

TEST(PolicyCheck, PristinePassesDefaultConfig) {
  const ExploreResult res = explore(PolicyCheckConfig{});
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_FALSE(res.truncated);
  EXPECT_GT(res.states, 1000u);  // the space is genuinely explored
  EXPECT_GT(res.finals, 0u);     // and bottoms out in quiescent states
}

TEST(PolicyCheck, PristinePassesFourPagesAndDeeperPool) {
  PolicyCheckConfig cfg;
  cfg.nodes = 1;
  cfg.pages_per_node = 4;
  cfg.pool_frames = 2;
  cfg.touches = 6;
  const ExploreResult res = explore(cfg);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_FALSE(res.truncated);
}

TEST(PolicyCheck, PristinePassesFullInterleaving) {
  // Cross-check the node-ordered persistent set against the full product on
  // a budget small enough to stay exhaustive.
  PolicyCheckConfig cfg;
  cfg.touches = 2;
  cfg.daemon_runs = 3;
  cfg.ordered = false;
  const ExploreResult res = explore(cfg);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_FALSE(res.truncated);
}

// ---- mutations --------------------------------------------------------------

TEST(PolicyCheckMutations, EveryMutationCaughtWithShortTrace) {
  for (int i = 1; i < kNumPolicyMutations; ++i) {
    PolicyCheckConfig cfg;
    cfg.mutation = static_cast<PolicyMutation>(i);
    const ExploreResult res = explore(cfg);
    EXPECT_FALSE(res.ok) << "mutation " << to_string(cfg.mutation)
                         << " was not caught";
    EXPECT_FALSE(res.violation.empty());
    // BFS yields minimal counterexamples; every seeded bug is shallow.
    EXPECT_LE(res.trace.size(), 8u)
        << "mutation " << to_string(cfg.mutation) << " trace:\n"
        << res.report();
  }
}

TEST(PolicyCheckMutations, UpgradeWhileDisabledNamesTheUpgrade) {
  PolicyCheckConfig cfg;
  cfg.mutation = PolicyMutation::kUpgradeWhileDisabled;
  const ExploreResult res = explore(cfg);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.violation.find("remapping is disabled"), std::string::npos);
  ASSERT_FALSE(res.trace.empty());
  EXPECT_NE(res.trace.back().find("upgraded to S-COMA"), std::string::npos);
}

TEST(PolicyCheckMutations, PoolOvercommitIsAStateInvariant) {
  PolicyCheckConfig cfg;
  cfg.mutation = PolicyMutation::kUpgradeIgnoresPool;
  const ExploreResult res = explore(cfg);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.violation.find("pool overcommitted"), std::string::npos);
}

TEST(PolicyCheckMutations, TracesSpeakPolicyVocabulary) {
  // Counterexamples must name policy states — mapping modes, thresholds,
  // daemon verdicts — not bare enum ints.
  PolicyCheckConfig cfg;
  cfg.mutation = PolicyMutation::kThrashingSticky;
  const ExploreResult res = explore(cfg);
  ASSERT_FALSE(res.ok);
  for (const std::string& step : res.trace) {
    EXPECT_TRUE(step.find("touches page") != std::string::npos ||
                step.find("pageout daemon") != std::string::npos)
        << "unreadable trace step: " << step;
  }
  EXPECT_NE(res.final_dump.find("threshold="), std::string::npos);
  EXPECT_NE(res.final_dump.find("remap="), std::string::npos);
  EXPECT_TRUE(res.final_dump.find("S-COMA") != std::string::npos ||
              res.final_dump.find("unmapped") != std::string::npos ||
              res.final_dump.find("CC-NUMA") != std::string::npos)
      << res.final_dump;
}

// ---- the policy the checker steps, at the checker's machine -----------------

struct TinyNode {
  MachineConfig cfg = policy_check_machine();
  arch::AsComaPolicy policy{cfg};
  vm::PageCache cache{1};
  KernelStats stats;
  Cycle period = cfg.daemon_period;
  arch::PolicyEnv env{cfg, NodeId{0}, cache, stats, period};

  void fail() { policy.on_daemon_result(env, vm::DaemonResult{}); }
  void ok() {
    vm::DaemonResult r;
    r.reclaimed = 1;
    r.met_target = true;
    policy.on_daemon_result(env, r);
  }
};

TEST(AsComa, PressureEscalatesThenDisablesRemapping) {
  TinyNode t;
  t.fail();
  EXPECT_EQ(t.stats.threshold_raises, 1u);
  EXPECT_EQ(t.policy.threshold(), 2u);
  EXPECT_TRUE(t.policy.relocation_enabled());
  EXPECT_EQ(t.period, Cycle{8});
  t.fail();
  EXPECT_EQ(t.stats.threshold_raises, 2u);
  EXPECT_FALSE(t.policy.relocation_enabled());  // converged to CC-NUMA
  t.fail();
  EXPECT_EQ(t.stats.threshold_raises, 2u);  // nothing left to escalate
  EXPECT_EQ(t.period, Cycle{16});           // saturated at period_max
}

TEST(AsComa, RecoveryIsHystereticAndClearsThrashing) {
  TinyNode t;
  t.fail();
  EXPECT_TRUE(t.policy.thrashing());
  t.ok();
  t.ok();
  EXPECT_EQ(t.policy.threshold(), 2u);  // streak 2 of 3
  t.ok();
  EXPECT_EQ(t.stats.threshold_drops, 1u);
  EXPECT_EQ(t.policy.threshold(), t.cfg.refetch_threshold);
  EXPECT_FALSE(t.policy.thrashing());  // full health reached
  EXPECT_EQ(t.period, t.cfg.daemon_period);
}

TEST(AsComa, FailureResetsRelaxationStreak) {
  TinyNode t;
  t.fail();
  t.ok();
  t.ok();    // streak 2 of 3
  t.fail();  // a failure intervenes
  t.ok();
  t.ok();    // back to 2 of 3
  EXPECT_EQ(t.stats.threshold_drops, 0u);
  EXPECT_FALSE(t.policy.relocation_enabled());
  t.ok();
  EXPECT_EQ(t.stats.threshold_drops, 1u);
  EXPECT_TRUE(t.policy.relocation_enabled());
}

}  // namespace
}  // namespace ascoma::check
