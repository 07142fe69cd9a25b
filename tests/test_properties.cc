// Property-based sweeps: every (architecture x memory pressure) point must
// satisfy the machine's structural invariants on a workload with writes,
// locks, and a hot remote set.  gtest TEST_P drives the grid.

#include <gtest/gtest.h>

#include <tuple>

#include "core/machine.hh"
#include "workload/synthetic.hh"

namespace ascoma::core {
namespace {

workload::SyntheticWorkload property_workload() {
  workload::SyntheticParams p;
  p.nodes = 4;
  p.home_pages = 24;
  p.remote_pages = 20;
  p.iterations = 4;
  p.sweeps_per_iteration = 2;
  p.loads_per_page = 32;
  p.write_fraction = 0.15;
  p.random_fraction = 0.1;
  p.locks = 4;
  return workload::SyntheticWorkload(p);
}

using Point = std::tuple<ArchModel, double>;

std::string point_name(const ::testing::TestParamInfo<Point>& info) {
  return std::string(to_string(std::get<0>(info.param))) + "_" +
         std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
}

class ArchPressureProperty : public ::testing::TestWithParam<Point> {};

TEST_P(ArchPressureProperty, InvariantBattery) {
  const auto [arch, pressure] = GetParam();
  MachineConfig cfg;
  cfg.arch = arch;
  cfg.memory_pressure = pressure;
  cfg.check_invariants = true;  // the invariant sweep runs at end of run()

  auto wl = property_workload();
  Machine m(cfg, wl);
  const RunResult r = m.run();

  // P1: progress — the run completed with nonzero time and every access
  // accounted for.
  EXPECT_GT(r.cycles(), Cycle{0});
  for (const NodeStats& n : r.per_node) {
    EXPECT_EQ(n.shared_loads + n.shared_stores,
              n.l1_hits + n.misses.total());
  }

  // P2: the makespan equals the busiest node's accounted time.
  Cycle max_total{0};
  for (const NodeStats& n : r.per_node)
    max_total = std::max(max_total, n.time.total());
  EXPECT_EQ(max_total, r.stats.parallel_cycles);

  // P3: frame conservation — free + active S-COMA pages == capacity.
  for (NodeId n{0}; n.value() < r.stats.nodes; ++n) {
    const auto capacity = m.page_cache(n).capacity();
    EXPECT_EQ(m.page_cache(n).free_frames() + m.page_cache(n).active_pages(),
              capacity);
    EXPECT_EQ(m.page_table(n).scoma_pages(), m.page_cache(n).active_pages());
  }

  // P4: CC-NUMA never uses the page cache; others may.
  if (arch == ArchModel::kCcNuma) {
    EXPECT_EQ(r.stats.totals.misses[MissSource::kScoma], 0u);
    EXPECT_EQ(r.stats.totals.kernel.scoma_allocs, 0u);
  }

  // P5: upgrades and downgrades are hybrid-only.
  if (arch == ArchModel::kCcNuma || arch == ArchModel::kScoma) {
    EXPECT_EQ(r.stats.totals.kernel.upgrades, 0u);
  }

  // P6: miss sources are consistent with the architecture.
  if (arch == ArchModel::kScoma) {
    // Pure S-COMA has no CC-NUMA pages, hence no RAC hits on remote data.
    EXPECT_EQ(r.stats.totals.misses[MissSource::kRac], 0u);
  }

  // P7: kernel activity counters are self-consistent.
  const KernelStats& k = r.stats.totals.kernel;
  EXPECT_EQ(k.scoma_allocs + k.numa_allocs, k.page_faults);
  EXPECT_GE(k.daemon_pages_scanned, k.daemon_pages_reclaimed);
  EXPECT_GE(k.relocation_interrupts, k.upgrades);

  // P8: determinism — a second identical machine reproduces the run.
  auto wl2 = property_workload();
  const RunResult r2 = simulate(cfg, wl2);
  EXPECT_EQ(r2.cycles(), r.cycles());
  EXPECT_EQ(r2.stats.totals.misses.total(), r.stats.totals.misses.total());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ArchPressureProperty,
    ::testing::Combine(
        ::testing::Values(ArchModel::kCcNuma, ArchModel::kScoma,
                          ArchModel::kRNuma, ArchModel::kVcNuma,
                          ArchModel::kAsComa),
        ::testing::Values(0.15, 0.5, 0.8, 0.93)),
    point_name);

// Latency-ordering property: across the grid, the simulator must respect
// the Table 4 hierarchy (L1 < RAC < local < remote) in its realized average
// shared-memory stall per miss.
class LatencyOrdering : public ::testing::TestWithParam<double> {};

TEST_P(LatencyOrdering, RemoteHeavyConfigsStallMore) {
  const double pressure = GetParam();
  auto wl = property_workload();

  MachineConfig lo;
  lo.arch = ArchModel::kScoma;
  lo.memory_pressure = 0.15;  // everything replicated locally
  MachineConfig hi;
  hi.arch = ArchModel::kCcNuma;
  hi.memory_pressure = pressure;  // remote traffic stays remote

  const RunResult a = simulate(lo, wl);
  const RunResult b = simulate(hi, wl);
  const double stall_a =
      static_cast<double>(a.stats.totals.time[TimeBucket::kUserShared].value());
  const double stall_b =
      static_cast<double>(b.stats.totals.time[TimeBucket::kUserShared].value());
  EXPECT_LT(stall_a, stall_b);
}

INSTANTIATE_TEST_SUITE_P(Pressures, LatencyOrdering,
                         ::testing::Values(0.2, 0.5, 0.9));

// The same invariant battery on SMP nodes (2 processors per node) — the
// sibling-snoop paths must preserve every structural property.
class SmpProperty : public ::testing::TestWithParam<Point> {};

TEST_P(SmpProperty, InvariantBattery) {
  const auto [arch, pressure] = GetParam();
  workload::SyntheticParams p;
  p.nodes = 4;
  p.procs_per_node = 2;
  p.home_pages = 24;
  p.remote_pages = 16;
  p.iterations = 3;
  p.loads_per_page = 16;
  p.write_fraction = 0.2;
  p.locks = 4;
  workload::SyntheticWorkload wl(p);

  MachineConfig cfg;
  cfg.arch = arch;
  cfg.memory_pressure = pressure;
  Machine m(cfg, wl);
  const RunResult r = m.run();  // the invariant sweep runs at completion

  EXPECT_GT(r.cycles(), Cycle{0});
  EXPECT_EQ(r.per_node.size(), 8u);
  for (const NodeStats& n : r.per_node) {
    EXPECT_EQ(n.shared_loads + n.shared_stores,
              n.l1_hits + n.misses.total());
  }
  for (NodeId n{0}; n.value() < 4; ++n) {
    EXPECT_EQ(m.page_cache(n).free_frames() + m.page_cache(n).active_pages(),
              m.page_cache(n).capacity());
  }
  // Determinism under SMP interleaving.
  const RunResult r2 = simulate(cfg, wl);
  EXPECT_EQ(r2.cycles(), r.cycles());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SmpProperty,
    ::testing::Combine(::testing::Values(ArchModel::kCcNuma,
                                         ArchModel::kScoma,
                                         ArchModel::kAsComa),
                       ::testing::Values(0.2, 0.85)),
    point_name);

}  // namespace
}  // namespace ascoma::core
