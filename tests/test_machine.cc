#include "core/machine.hh"

#include <gtest/gtest.h>

#include <string>

#include "common/check.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ascoma::core {
namespace {

// A small hot-remote-set workload: 4 nodes x 32 home pages, 24 hot remote
// pages per node, enough reuse to cross the relocation threshold.
workload::SyntheticWorkload hot_workload(std::uint32_t iterations = 6) {
  workload::SyntheticParams p;
  p.nodes = 4;
  p.home_pages = 32;
  p.remote_pages = 24;
  p.iterations = iterations;
  p.sweeps_per_iteration = 3;
  p.loads_per_page = 32;  // stride 4: one line per block -> strong refetch
  p.write_fraction = 0.05;
  p.compute_per_page = Cycle{5};
  return workload::SyntheticWorkload(p);
}

MachineConfig config(ArchModel arch, double pressure) {
  MachineConfig cfg;
  cfg.arch = arch;
  cfg.memory_pressure = pressure;
  return cfg;
}

TEST(Machine, RunsToCompletionAndAuditsClean) {
  auto wl = hot_workload();
  const RunResult r = simulate(config(ArchModel::kAsComa, 0.5), wl);
  EXPECT_GT(r.cycles(), Cycle{0});
  EXPECT_EQ(r.stats.nodes, 4u);
}

TEST(Machine, AccessAccountingBalances) {
  auto wl = hot_workload();
  for (ArchModel arch : {ArchModel::kCcNuma, ArchModel::kScoma,
                         ArchModel::kRNuma, ArchModel::kVcNuma,
                         ArchModel::kAsComa}) {
    const RunResult r = simulate(config(arch, 0.6), wl);
    for (const NodeStats& n : r.per_node) {
      // Every shared access is either an L1 hit (incl. upgrades) or a miss.
      EXPECT_EQ(n.shared_loads + n.shared_stores,
                n.l1_hits + n.misses.total())
          << to_string(arch);
    }
  }
}

TEST(Machine, TimeBucketsSumToCompletionCycle) {
  auto wl = hot_workload();
  const RunResult r = simulate(config(ArchModel::kAsComa, 0.5), wl);
  Cycle max_total{0};
  for (const NodeStats& n : r.per_node)
    max_total = std::max(max_total, n.time.total());
  EXPECT_EQ(max_total, r.stats.parallel_cycles);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto wl = hot_workload();
  const RunResult a = simulate(config(ArchModel::kAsComa, 0.7), wl);
  const RunResult b = simulate(config(ArchModel::kAsComa, 0.7), wl);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.stats.totals.misses.total(), b.stats.totals.misses.total());
  EXPECT_EQ(a.stats.totals.kernel.upgrades, b.stats.totals.kernel.upgrades);
}

// The sweeps and the CLI run CC-NUMA at one pressure and report it for
// every pressure, so the whole result must be bit-identical across
// pressures.  Only the pressure itself and the frame count it sizes differ.
void expect_ccnuma_pressure_invariant(const workload::Workload& wl) {
  SCOPED_TRACE(wl.name());
  const RunResult lo = simulate(config(ArchModel::kCcNuma, 0.1), wl);
  RunResult hi = simulate(config(ArchModel::kCcNuma, 0.9), wl);
  EXPECT_EQ(lo.cycles(), hi.cycles());
  hi.config = lo.config;
  hi.stats.frames_per_node = lo.stats.frames_per_node;
  hi.stats.memory_pressure = lo.stats.memory_pressure;
  EXPECT_TRUE(hi == lo) << "results differ beyond the pressure fields";
  EXPECT_EQ(lo.stats.totals.kernel.upgrades, 0u);
  EXPECT_EQ(lo.stats.totals.kernel.daemon_runs, 0u);
}

TEST(Machine, CcNumaIsPressureInvariant) {
  expect_ccnuma_pressure_invariant(hot_workload());
  for (const std::string& name : workload::workload_names())
    expect_ccnuma_pressure_invariant(*workload::make_workload(name, 0.1));
}

TEST(Machine, AsComaMatchesScomaAtLowPressure) {
  // Below the ideal pressure AS-COMA maps everything S-COMA up front and
  // performs no remappings: identical behaviour to pure S-COMA.
  auto wl = hot_workload();
  const RunResult s = simulate(config(ArchModel::kScoma, 0.2), wl);
  const RunResult a = simulate(config(ArchModel::kAsComa, 0.2), wl);
  EXPECT_EQ(a.cycles(), s.cycles());
  EXPECT_EQ(a.stats.totals.kernel.upgrades, 0u);
  EXPECT_EQ(a.stats.totals.kernel.downgrades, 0u);
}

TEST(Machine, AsComaBeatsCcNumaAtLowPressure) {
  auto wl = hot_workload();
  const RunResult c = simulate(config(ArchModel::kCcNuma, 0.2), wl);
  const RunResult a = simulate(config(ArchModel::kAsComa, 0.2), wl);
  EXPECT_LT(a.cycles(), c.cycles());
}

TEST(Machine, FramesFollowMemoryPressure) {
  auto wl = hot_workload(2);
  const RunResult r = simulate(config(ArchModel::kAsComa, 0.25), wl);
  // 32 home pages at 25% pressure -> 128 frames per node.
  EXPECT_EQ(r.stats.frames_per_node, 128u);
  EXPECT_EQ(r.stats.home_pages_per_node, 32u);
  EXPECT_DOUBLE_EQ(r.stats.memory_pressure, 0.25);
}

TEST(Machine, HybridsUpgradeHotPages) {
  auto wl = hot_workload();
  for (ArchModel arch :
       {ArchModel::kRNuma, ArchModel::kVcNuma, ArchModel::kAsComa}) {
    const RunResult r = simulate(config(arch, 0.5), wl);
    // At 50% pressure (cache 32 < hot 24... cache fits): hybrids should
    // move hot pages into the page cache one way or another.
    EXPECT_GT(r.stats.totals.misses[MissSource::kScoma], 0u)
        << to_string(arch);
  }
}

TEST(Machine, RNumaPaysColdRefetchesBeforeUpgrading) {
  auto wl = hot_workload();
  const RunResult r = simulate(config(ArchModel::kRNuma, 0.2), wl);
  const RunResult a = simulate(config(ArchModel::kAsComa, 0.2), wl);
  // R-NUMA maps CC-NUMA first: it must suffer remote conflict refetches that
  // AS-COMA's S-COMA-first allocation never sees.
  EXPECT_GT(r.stats.totals.misses[MissSource::kConfCapc],
            a.stats.totals.misses[MissSource::kConfCapc]);
  EXPECT_GT(r.stats.totals.kernel.upgrades, 0u);
  EXPECT_EQ(a.stats.totals.kernel.upgrades, 0u);
}

TEST(Machine, ScomaThrashesAtHighPressure) {
  auto wl = hot_workload();
  const RunResult lo = simulate(config(ArchModel::kScoma, 0.2), wl);
  const RunResult hi = simulate(config(ArchModel::kScoma, 0.93), wl);
  EXPECT_GT(hi.cycles(), lo.cycles());
  EXPECT_GT(hi.stats.totals.kernel.downgrades, 0u);
  EXPECT_GT(hi.stats.totals.time[TimeBucket::kKernelOvhd], Cycle{0});
}

TEST(Machine, AsComaBacksOffAtHighPressure) {
  auto wl = hot_workload(10);
  const RunResult r = simulate(config(ArchModel::kAsComa, 0.93), wl);
  const KernelStats& k = r.stats.totals.kernel;
  // The back-off must have engaged: remaps were suppressed and the node
  // switched to CC-NUMA-mode allocation for part of the working set.
  EXPECT_GT(k.remap_suppressed, 0u);
  EXPECT_GT(k.numa_allocs, 0u);
  // Suppressions reset the directory counter, so interrupts stay bounded:
  // far fewer than one per suppressed refetch beyond the threshold.
  EXPECT_GE(k.relocation_interrupts, k.upgrades + k.remap_suppressed);
}

TEST(Machine, AsComaEscalatesWhenDaemonFindsNoColdPages) {
  // A shorter daemon period makes the daemon run within this small
  // workload's lifetime while every page is still hot: reclaim failures
  // must raise the refetch threshold (the paper's escalation path).
  auto wl = hot_workload(10);
  MachineConfig cfg = config(ArchModel::kAsComa, 0.93);
  cfg.daemon_period = Cycle{5'000};  // hot pages stay referenced across runs
  const RunResult r = simulate(cfg, wl);
  ASSERT_GT(r.stats.totals.kernel.daemon_reclaim_failures, 0u);
  EXPECT_GT(r.stats.totals.kernel.threshold_raises, 0u);
  bool raised = false;
  for (std::uint32_t t : r.final_threshold)
    raised |= t > r.config.refetch_threshold;
  EXPECT_TRUE(raised);
}

TEST(Machine, AsComaSuppressesRemapsUnderPressure) {
  auto wl = hot_workload(10);
  const RunResult a = simulate(config(ArchModel::kAsComa, 0.93), wl);
  const RunResult rn = simulate(config(ArchModel::kRNuma, 0.93), wl);
  EXPECT_GT(a.stats.totals.kernel.remap_suppressed, 0u);
  // R-NUMA never suppresses; it force-evicts instead.
  EXPECT_EQ(rn.stats.totals.kernel.remap_suppressed, 0u);
  EXPECT_LT(a.stats.totals.kernel.upgrades,
            rn.stats.totals.kernel.upgrades);
}

TEST(Machine, SynchronizationIsAccounted) {
  auto wl = hot_workload();
  const RunResult r = simulate(config(ArchModel::kCcNuma, 0.5), wl);
  EXPECT_GT(r.barrier_episodes, 0u);
  EXPECT_GT(r.stats.totals.time[TimeBucket::kSync], Cycle{0});
}

TEST(Machine, RemotePageCensusPopulated) {
  auto wl = hot_workload(2);
  const RunResult r = simulate(config(ArchModel::kCcNuma, 0.5), wl);
  // Each of the 4 nodes has a 24-page hot remote set.
  EXPECT_EQ(r.remote_page_node_pairs, 4u * 24);
}

TEST(Machine, RelocationCensusCountsHotPages) {
  auto wl = hot_workload();
  const RunResult r = simulate(config(ArchModel::kCcNuma, 0.5), wl);
  // CC-NUMA never remaps, but the census still reports which pages *would*
  // qualify (Table 6 is measured this way at 50% pressure).
  EXPECT_GT(r.relocated_pairs, 0u);
  EXPECT_LE(r.relocated_pairs, r.remote_page_node_pairs);
}

// MachineConfig::kMaxNodes nodes: node 63 fills the directory's sharer word
// and the coherence shadow's row is a whole word.  The run ends with the
// invariant sweep.
TEST(Machine, SixtyFourNodesRunClean) {
  workload::SyntheticParams p;
  p.nodes = MachineConfig::kMaxNodes;
  p.home_pages = 2;
  p.remote_pages = 4;
  p.iterations = 2;
  p.write_fraction = 0.3;
  const workload::SyntheticWorkload wl(p);
  const RunResult r = simulate(config(ArchModel::kAsComa, 0.5), wl);
  EXPECT_EQ(r.stats.nodes, MachineConfig::kMaxNodes);
  EXPECT_GT(r.remote_page_node_pairs, 0u);
  EXPECT_GT(r.stats.totals.misses.total(), 0u);
}

TEST(Machine, RunIsSingleShot) {
  auto wl = hot_workload(1);
  Machine m(config(ArchModel::kAsComa, 0.5), wl);
  m.run();
  EXPECT_THROW(m.run(), CheckFailure);
}

TEST(Machine, RejectsGranularityMismatch) {
  auto wl = hot_workload(1);
  MachineConfig cfg = config(ArchModel::kAsComa, 0.5);
  cfg.page_bytes = ByteCount{8192};
  cfg.l1_bytes = ByteCount{16384};
  EXPECT_THROW(Machine(cfg, wl), CheckFailure);
}

TEST(Machine, RejectsInvalidConfig) {
  auto wl = hot_workload(1);
  MachineConfig cfg = config(ArchModel::kAsComa, 0.5);
  cfg.refetch_threshold = 0;
  EXPECT_THROW(Machine(cfg, wl), CheckFailure);
}

TEST(Machine, UpgradedPagesServeFromPageCache) {
  auto wl = hot_workload();
  const RunResult r = simulate(config(ArchModel::kRNuma, 0.3), wl);
  EXPECT_GT(r.stats.totals.kernel.upgrades, 0u);
  EXPECT_GT(r.stats.totals.misses[MissSource::kScoma], 0u);
  // Upgrades flush the page: induced cold misses must be visible.
  EXPECT_GT(r.stats.totals.induced_cold_misses, 0u);
}

TEST(Machine, WritebacksAreTracked) {
  auto wl = hot_workload();
  const RunResult r = simulate(config(ArchModel::kCcNuma, 0.5), wl);
  EXPECT_GT(r.writebacks_local + r.writebacks_remote, 0u);
}

}  // namespace
}  // namespace ascoma::core
