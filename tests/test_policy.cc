#include "arch/policy.hh"

#include <gtest/gtest.h>

#include "arch/ascoma.hh"
#include "arch/ccnuma.hh"
#include "arch/rnuma.hh"
#include "arch/scoma.hh"
#include "arch/vcnuma.hh"

namespace ascoma::arch {
namespace {

struct PolicyFixture {
  explicit PolicyFixture(std::uint32_t capacity = 8)
      : cache(capacity), period(cfg.daemon_period) {}

  PolicyEnv env(Cycle now = Cycle{0}) {
    return PolicyEnv{cfg, NodeId{0}, cache, kernel, period, now};
  }

  MachineConfig cfg;
  vm::PageCache cache;
  KernelStats kernel;
  Cycle period;
};

TEST(MakePolicy, ProducesRequestedModel) {
  MachineConfig cfg;
  for (ArchModel m : {ArchModel::kCcNuma, ArchModel::kScoma, ArchModel::kRNuma,
                      ArchModel::kVcNuma, ArchModel::kAsComa}) {
    cfg.arch = m;
    EXPECT_EQ(make_policy(cfg)->model(), m);
  }
}

// ---- CC-NUMA ----------------------------------------------------------------

TEST(CcNuma, NeverRelocatesNeverRunsDaemon) {
  PolicyFixture f;
  CcNumaPolicy p(f.cfg);
  auto e = f.env();
  EXPECT_EQ(p.initial_mode(e), PageMode::kNuma);
  EXPECT_FALSE(p.should_relocate(e, VPageId{0}, 1'000'000));
  EXPECT_FALSE(p.runs_daemon());
  EXPECT_FALSE(p.relocation_enabled());
}

// ---- S-COMA -----------------------------------------------------------------

TEST(Scoma, AlwaysMapsScomaEvenWithEmptyPool) {
  PolicyFixture f(0);
  ScomaPolicy p(f.cfg);
  auto e = f.env();
  EXPECT_EQ(p.initial_mode(e), PageMode::kScoma);
  EXPECT_FALSE(p.should_relocate(e, VPageId{0}, 1'000'000));
  EXPECT_TRUE(p.runs_daemon());
}

// ---- R-NUMA -----------------------------------------------------------------

TEST(RNuma, FixedThresholdRelocation) {
  PolicyFixture f;
  RNumaPolicy p(f.cfg);
  auto e = f.env();
  EXPECT_EQ(p.initial_mode(e), PageMode::kNuma);
  EXPECT_FALSE(p.should_relocate(e, VPageId{0}, f.cfg.refetch_threshold - 1));
  EXPECT_TRUE(p.should_relocate(e, VPageId{0}, f.cfg.refetch_threshold));
  EXPECT_TRUE(p.force_eviction_on_upgrade());
}

TEST(RNuma, IgnoresDaemonFailures) {
  PolicyFixture f;
  RNumaPolicy p(f.cfg);
  auto e = f.env();
  vm::DaemonResult fail;
  fail.met_target = false;
  for (int i = 0; i < 10; ++i) p.on_daemon_result(e, fail);
  EXPECT_EQ(p.threshold(), f.cfg.refetch_threshold);  // no back-off
  EXPECT_EQ(f.kernel.threshold_raises, 0u);
}

// ---- VC-NUMA ----------------------------------------------------------------

TEST(VcNuma, RaisesThresholdWhenEvictionsDoNotEarnBreakEven) {
  PolicyFixture f(4);  // small cache: evaluation after 8 replacements
  VcNumaPolicy p(f.cfg);
  auto e = f.env();
  // 8 replacements of pages that never supplied a hit.
  for (VPageId v{0}; v.value() < 8; ++v) p.on_replacement(e, VPageId{100 + v.value()});
  EXPECT_EQ(p.evaluations(), 1u);
  EXPECT_EQ(p.threshold(), f.cfg.refetch_threshold + f.cfg.threshold_increment);
  EXPECT_EQ(f.kernel.threshold_raises, 1u);
}

TEST(VcNuma, KeepsThresholdWhenEvictionsEarned) {
  PolicyFixture f(4);
  VcNumaPolicy p(f.cfg);
  auto e = f.env();
  for (VPageId v{0}; v.value() < 8; ++v) {
    for (std::uint32_t h = 0; h < f.cfg.vcnuma_break_even; ++h)
      p.on_page_cache_hit(VPageId{200 + v.value()});
    p.on_replacement(e, VPageId{200 + v.value()});
  }
  EXPECT_EQ(p.evaluations(), 1u);
  EXPECT_EQ(p.threshold(), f.cfg.refetch_threshold);
}

TEST(VcNuma, RecoversThresholdAfterGoodWindow) {
  PolicyFixture f(4);
  VcNumaPolicy p(f.cfg);
  auto e = f.env();
  for (VPageId v{0}; v.value() < 8; ++v) p.on_replacement(e, v);  // bad window
  const auto raised = p.threshold();
  for (VPageId v{0}; v.value() < 8; ++v) {
    for (std::uint32_t h = 0; h < f.cfg.vcnuma_break_even; ++h)
      p.on_page_cache_hit(VPageId{300 + v.value()});
    p.on_replacement(e, VPageId{300 + v.value()});  // good window
  }
  EXPECT_LT(p.threshold(), raised);
  EXPECT_EQ(f.kernel.threshold_drops, 1u);
}

TEST(VcNuma, EvaluationCadenceScalesWithCacheSize) {
  PolicyFixture f(100);
  VcNumaPolicy p(f.cfg);
  auto e = f.env();
  for (std::uint64_t i = 0; i < 199; ++i)
    p.on_replacement(e, VPageId{1000 + i});
  EXPECT_EQ(p.evaluations(), 0u);  // needs 2 * capacity = 200
  p.on_replacement(e, VPageId{5000});
  EXPECT_EQ(p.evaluations(), 1u);
}

// ---- AS-COMA ----------------------------------------------------------------

TEST(AsComa, ScomaFirstWhilePoolLasts) {
  PolicyFixture f(2);
  AsComaPolicy p(f.cfg);
  auto e = f.env();
  EXPECT_EQ(p.initial_mode(e), PageMode::kScoma);
  f.cache.alloc();
  f.cache.alloc();  // pool drained
  EXPECT_EQ(p.initial_mode(e), PageMode::kNuma);
}

TEST(AsComa, DaemonFailureRaisesThresholdAndStretchesPeriod) {
  PolicyFixture f;
  AsComaPolicy p(f.cfg);
  auto e = f.env(Cycle{0});
  vm::DaemonResult fail;
  fail.met_target = false;
  const Cycle period0 = f.period;
  p.on_daemon_result(e, fail);
  EXPECT_EQ(p.threshold(), f.cfg.refetch_threshold + f.cfg.threshold_increment);
  EXPECT_GT(f.period, period0);
  EXPECT_TRUE(p.thrashing());
  EXPECT_EQ(f.kernel.threshold_raises, 1u);
}

TEST(AsComa, HugeBackoffFactorSaturatesAtPeriodMax) {
  // A finite factor passes MachineConfig::validate; the stretched period
  // must saturate at daemon_period_max, not overflow the cycle count.
  PolicyFixture f;
  f.cfg.daemon_backoff_factor = 1e30;
  AsComaPolicy p(f.cfg);
  vm::DaemonResult fail;
  fail.met_target = false;
  auto e = f.env(Cycle{0});
  p.on_daemon_result(e, fail);
  EXPECT_EQ(f.period, f.cfg.daemon_period_max);
  auto later = f.env(f.period + Cycle{1});
  p.on_daemon_result(later, fail);
  EXPECT_EQ(f.period, f.cfg.daemon_period_max);
}

TEST(AsComa, SuppressionMarksThrashingWithoutEscalating) {
  PolicyFixture f;
  AsComaPolicy p(f.cfg);
  auto e = f.env(Cycle{0});
  p.on_remap_suppressed(e);
  EXPECT_TRUE(p.thrashing());
  EXPECT_EQ(p.threshold(), f.cfg.refetch_threshold);  // unchanged
  EXPECT_TRUE(p.relocation_enabled());
  // Thrashing stops S-COMA-first allocation even with frames free.
  EXPECT_EQ(p.initial_mode(e), PageMode::kNuma);
}

TEST(AsComa, ExtremePressureDisablesRelocationEntirely) {
  PolicyFixture f;
  f.cfg.threshold_max = f.cfg.refetch_threshold + 2 * f.cfg.threshold_increment;
  AsComaPolicy p(f.cfg);
  vm::DaemonResult fail;
  fail.met_target = false;
  Cycle now{0};
  for (int i = 0; i < 10 && p.relocation_enabled(); ++i) {
    auto e = f.env(now);
    p.on_daemon_result(e, fail);
    now += f.period + Cycle{1};
  }
  EXPECT_FALSE(p.relocation_enabled());
  auto e = f.env(now);
  EXPECT_FALSE(p.should_relocate(e, VPageId{0}, 1'000'000));
}

TEST(AsComa, ThrashingStopsScomaFirstAllocation) {
  PolicyFixture f(8);
  AsComaPolicy p(f.cfg);
  auto e = f.env(Cycle{0});
  vm::DaemonResult fail;
  fail.met_target = false;
  p.on_daemon_result(e, fail);
  // Pool still has frames, but the node has concluded memory is tight.
  EXPECT_EQ(p.initial_mode(e), PageMode::kNuma);
}

TEST(AsComa, RecoversWhenColdPagesReappear) {
  PolicyFixture f;
  AsComaPolicy p(f.cfg);
  vm::DaemonResult fail;
  fail.met_target = false;
  Cycle now{0};
  for (int i = 0; i < 3; ++i) {
    auto e = f.env(now);
    p.on_daemon_result(e, fail);
    now += f.period + Cycle{1};
  }
  const auto raised = p.threshold();
  EXPECT_GT(raised, f.cfg.refetch_threshold);

  vm::DaemonResult ok;
  ok.met_target = true;
  ok.reclaimed = 10;
  for (int i = 0; i < 20 && p.threshold() > f.cfg.refetch_threshold; ++i) {
    auto e = f.env(now);
    p.on_daemon_result(e, ok);
    now += f.period + Cycle{1};
  }
  EXPECT_EQ(p.threshold(), f.cfg.refetch_threshold);
  EXPECT_FALSE(p.thrashing());
  EXPECT_GT(f.kernel.threshold_drops, 0u);
}

TEST(AsComa, DoesNotForceEvictions) {
  MachineConfig cfg;
  AsComaPolicy p(cfg);
  EXPECT_FALSE(p.force_eviction_on_upgrade());
}

}  // namespace
}  // namespace ascoma::arch
