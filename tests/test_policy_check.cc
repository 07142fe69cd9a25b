// Regression tests for the AS-COMA policy checker (src/check/policy_model.*
// + the BackoffKernel it drives).  Three claims are pinned down:
//
//   1. the pristine policy satisfies every checked property on the 2-node /
//      <=4-page configurations the tool runs in CI;
//   2. every seeded policy mutation is caught, with a BFS-minimal
//      counterexample of at most 8 steps;
//   3. counterexample traces and state dumps speak in policy vocabulary
//      (mapping modes, thresholds, daemon verdicts), not raw integers.

#include "check/policy_model.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/backoff_kernel.hh"
#include "check/explore_core.hh"

namespace ascoma::check {
namespace {

ExploreResult run(const PolicyCheckConfig& cfg) {
  const PolicyModel model(cfg);
  return explore_model(model, ExploreOptions{});
}

// ---- pristine ---------------------------------------------------------------

TEST(PolicyCheck, PristinePassesDefaultConfig) {
  const ExploreResult res = run(PolicyCheckConfig{});
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
  const ExploreResult res = run(cfg);
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
  const ExploreResult res = run(cfg);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_FALSE(res.truncated);
}

// ---- mutations --------------------------------------------------------------

TEST(PolicyCheckMutations, EveryMutationCaughtWithShortTrace) {
  for (int i = 1; i < kNumPolicyMutations; ++i) {
    PolicyCheckConfig cfg;
    cfg.mutation = static_cast<PolicyMutation>(i);
    const ExploreResult res = run(cfg);
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
  const ExploreResult res = run(cfg);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.violation.find("remapping is disabled"), std::string::npos);
  ASSERT_FALSE(res.trace.empty());
  EXPECT_NE(res.trace.back().find("upgraded to S-COMA"), std::string::npos);
}

TEST(PolicyCheckMutations, PoolOvercommitIsAStateInvariant) {
  PolicyCheckConfig cfg;
  cfg.mutation = PolicyMutation::kUpgradeIgnoresPool;
  const ExploreResult res = run(cfg);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.violation.find("pool overcommitted"), std::string::npos);
}

TEST(PolicyCheckMutations, TracesSpeakPolicyVocabulary) {
  // Counterexamples must name policy states — mapping modes, thresholds,
  // daemon verdicts — not bare enum ints.
  PolicyCheckConfig cfg;
  cfg.mutation = PolicyMutation::kThrashingSticky;
  const ExploreResult res = run(cfg);
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

TEST(PolicyCheckMutations, NamesRoundTrip) {
  for (int i = 0; i < kNumPolicyMutations; ++i) {
    const auto m = static_cast<PolicyMutation>(i);
    PolicyMutation parsed;
    ASSERT_TRUE(parse_policy_mutation(to_string(m), &parsed)) << to_string(m);
    EXPECT_EQ(parsed, m);
  }
  PolicyMutation parsed;
  EXPECT_FALSE(parse_policy_mutation("not-a-mutation", &parsed));
}

// ---- the kernel the model drives --------------------------------------------

arch::BackoffSettings tiny() { return PolicyCheckConfig{}.settings(); }

TEST(BackoffKernel, PressureEscalatesThenDisablesRemapping) {
  arch::BackoffKernel k(tiny());
  Cycle period = tiny().initial_period;
  auto s1 = k.on_pressure(&period);
  EXPECT_TRUE(s1.escalated);
  EXPECT_EQ(k.threshold(), 2u);
  EXPECT_TRUE(k.relocation_enabled());
  EXPECT_EQ(period, Cycle{8});
  auto s2 = k.on_pressure(&period);
  EXPECT_TRUE(s2.escalated);
  EXPECT_FALSE(k.relocation_enabled());  // converged to CC-NUMA
  auto s3 = k.on_pressure(&period);
  EXPECT_FALSE(s3.escalated);  // nothing left to escalate
  EXPECT_EQ(period, Cycle{16});  // saturated at period_max
}

TEST(BackoffKernel, RecoveryIsHystereticAndClearsThrashing) {
  arch::BackoffKernel k(tiny());
  Cycle period = tiny().initial_period;
  k.on_pressure(&period);
  EXPECT_TRUE(k.thrashing());
  EXPECT_FALSE(k.on_healthy(true, &period).accepted);  // streak 1 of 2
  auto s = k.on_healthy(true, &period);
  EXPECT_TRUE(s.accepted);
  EXPECT_TRUE(s.relaxed);
  EXPECT_EQ(k.threshold(), tiny().initial_threshold);
  EXPECT_FALSE(k.thrashing());  // full health reached
  EXPECT_EQ(period, tiny().initial_period);
}

TEST(BackoffKernel, ColdEvidenceRequiredAndFailureResetsStreak) {
  arch::BackoffKernel k(tiny());
  Cycle period = tiny().initial_period;
  k.on_pressure(&period);
  EXPECT_FALSE(k.on_healthy(false, &period).accepted);  // no cold evidence
  EXPECT_FALSE(k.on_healthy(true, &period).accepted);   // streak 1 of 2
  k.on_pressure(&period);                               // a failure intervenes
  EXPECT_FALSE(k.on_healthy(true, &period).accepted);   // back to 1 of 2
  EXPECT_TRUE(k.on_healthy(true, &period).accepted);
}

}  // namespace
}  // namespace ascoma::check
