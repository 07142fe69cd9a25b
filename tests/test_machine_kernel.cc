// Focused tests of the Machine's kernel paths: pageout-daemon gating,
// reference-bit flow, fault-time behaviour per architecture, and the
// relocation mechanics.

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "workload/synthetic.hh"

namespace ascoma::core {
namespace {

workload::SyntheticWorkload wl(std::uint32_t iterations = 4,
                               double write_fraction = 0.05) {
  workload::SyntheticParams p;
  p.nodes = 4;
  p.home_pages = 32;
  p.remote_pages = 24;
  p.iterations = iterations;
  p.sweeps_per_iteration = 3;
  p.loads_per_page = 32;
  p.write_fraction = write_fraction;
  return workload::SyntheticWorkload(p);
}

MachineConfig cfg(ArchModel arch, double pressure) {
  MachineConfig c;
  c.arch = arch;
  c.memory_pressure = pressure;
  return c;
}

TEST(MachineKernel, DaemonIsRateLimited) {
  // A tiny daemon period lets the daemon run often; a huge one means it can
  // run at most a handful of times during the run.
  auto w = wl(8);
  MachineConfig fast = cfg(ArchModel::kScoma, 0.9);
  fast.daemon_period = Cycle{10'000};
  MachineConfig slow = cfg(ArchModel::kScoma, 0.9);
  slow.daemon_period = Cycle{1'000'000'000};  // effectively never
  const auto rf = simulate(fast, w);
  const auto rs = simulate(slow, w);
  EXPECT_GT(rf.stats.totals.kernel.daemon_runs,
            rs.stats.totals.kernel.daemon_runs);
  // With the daemon starved, pure S-COMA falls back to per-fault mandatory
  // replacement: downgrades still happen.
  EXPECT_GT(rs.stats.totals.kernel.downgrades, 0u);
}

TEST(MachineKernel, CcNumaNeverTouchesTheDaemon) {
  const auto r = simulate(cfg(ArchModel::kCcNuma, 0.9), wl());
  EXPECT_EQ(r.stats.totals.kernel.daemon_runs, 0u);
  EXPECT_EQ(r.stats.totals.kernel.downgrades, 0u);
  EXPECT_EQ(r.stats.totals.kernel.relocation_interrupts, 0u);
}

TEST(MachineKernel, FaultChargesKernelBase) {
  const auto r = simulate(cfg(ArchModel::kCcNuma, 0.5), wl(1));
  const auto& k = r.stats.totals.kernel;
  EXPECT_GT(k.page_faults, 0u);
  // One fault per remote page per node: 4 nodes x 24 hot remote pages.
  EXPECT_EQ(k.page_faults, 4u * 24);
  EXPECT_EQ(r.stats.totals.time[TimeBucket::kKernelBase],
            k.page_faults * r.config.cost_page_fault);
}

TEST(MachineKernel, ScomaFaultsAgainAfterEviction) {
  // Pure S-COMA at brutal pressure: pages are unmapped on eviction, so the
  // fault count exceeds the number of distinct remote pages.
  const auto r = simulate(cfg(ArchModel::kScoma, 0.93), wl(6));
  const auto& k = r.stats.totals.kernel;
  EXPECT_GT(k.downgrades, 0u);
  EXPECT_GT(k.page_faults, r.remote_page_node_pairs);
}

TEST(MachineKernel, HybridFaultsOncePerPage) {
  // Hybrids downgrade to CC-NUMA mode instead of unmapping: exactly one
  // fault per (page, node) no matter how much churn follows.
  const auto r = simulate(cfg(ArchModel::kRNuma, 0.93), wl(6));
  EXPECT_EQ(r.stats.totals.kernel.page_faults, r.remote_page_node_pairs);
}

TEST(MachineKernel, RelocationInterruptsAccountedAsOverhead) {
  const auto r = simulate(cfg(ArchModel::kRNuma, 0.5), wl());
  const auto& k = r.stats.totals.kernel;
  EXPECT_GT(k.relocation_interrupts, 0u);
  EXPECT_GT(r.stats.totals.time[TimeBucket::kKernelOvhd],
            k.relocation_interrupts * r.config.cost_interrupt / 2);
}

TEST(MachineKernel, UpgradeFlushesCountLines) {
  const auto r = simulate(cfg(ArchModel::kRNuma, 0.5), wl());
  const auto& k = r.stats.totals.kernel;
  EXPECT_GT(k.upgrades, 0u);
  // Upgraded pages had cached lines; flushes must be visible.
  EXPECT_GT(k.lines_flushed, 0u);
}

TEST(MachineKernel, RefBitsProtectHotPagesFromTheDaemon) {
  // Each node sweeps a hot remote set that fits its page cache, while
  // uniform random accesses keep mapping one-shot pages that drain the pool.
  // Second chance must let the daemon reclaim the cold pages and spare the
  // hot ones, so the hot set stays mapped and the page cache keeps serving.
  workload::SyntheticParams p;
  p.nodes = 4;
  p.home_pages = 32;
  p.remote_pages = 16;
  p.iterations = 8;
  p.sweeps_per_iteration = 3;
  p.loads_per_page = 32;
  p.write_fraction = 0.05;
  p.random_fraction = 0.05;
  MachineConfig c = cfg(ArchModel::kScoma, 0.6);  // 22 page-cache frames
  c.daemon_period = Cycle{100'000};
  const auto r = simulate(c, workload::SyntheticWorkload(p));
  const auto& k = r.stats.totals.kernel;
  EXPECT_GT(k.daemon_pages_reclaimed, 0u);
  EXPECT_GT(k.daemon_pages_scanned, k.daemon_pages_reclaimed);
  EXPECT_GT(r.stats.totals.misses[MissSource::kScoma], 0u);
  // S-COMA unmaps on eviction, so a fault beyond a page's first touch is a
  // page evicted while still in use: few may happen.
  ASSERT_GE(k.page_faults, r.remote_page_node_pairs);
  EXPECT_LT(k.page_faults - r.remote_page_node_pairs,
            r.remote_page_node_pairs / 4);
}

TEST(MachineKernel, ThresholdRaisesOnlyUnderBackoffArchitecture) {
  auto w = wl(8);
  MachineConfig as = cfg(ArchModel::kAsComa, 0.93);
  as.daemon_period = Cycle{5'000};  // force daemon activity in this short run
  MachineConfig rn = cfg(ArchModel::kRNuma, 0.93);
  rn.daemon_period = Cycle{5'000};
  const auto ra = simulate(as, w);
  const auto rr = simulate(rn, w);
  EXPECT_EQ(rr.stats.totals.kernel.threshold_raises, 0u);
  for (std::uint32_t t : rr.final_threshold)
    EXPECT_EQ(t, rn.refetch_threshold);
  // AS-COMA may or may not raise in a short run, but never below initial.
  for (std::uint32_t t : ra.final_threshold)
    EXPECT_GE(t, as.refetch_threshold);
}

TEST(MachineKernel, SuppressedRemapsLeavePageInNumaMode) {
  auto w = wl(10);
  Machine m(cfg(ArchModel::kAsComa, 0.93), w);
  const auto r = m.run();
  ASSERT_GT(r.stats.totals.kernel.remap_suppressed, 0u);
  // Frames stay conserved even with suppressed remaps in the mix.
  for (NodeId n{0}; n.value() < 4; ++n) {
    EXPECT_EQ(m.page_cache(n).free_frames() + m.page_cache(n).active_pages(),
              m.page_cache(n).capacity());
    EXPECT_EQ(m.page_table(n).scoma_pages(), m.page_cache(n).active_pages());
  }
}

TEST(MachineKernel, KernelTimeIsExclusiveToKernelArchitectures) {
  const auto cc = simulate(cfg(ArchModel::kCcNuma, 0.9), wl());
  EXPECT_EQ(cc.stats.totals.time[TimeBucket::kKernelOvhd], Cycle{0});
  const auto sc = simulate(cfg(ArchModel::kScoma, 0.93), wl(6));
  EXPECT_GT(sc.stats.totals.time[TimeBucket::kKernelOvhd], Cycle{0});
}

}  // namespace
}  // namespace ascoma::core
