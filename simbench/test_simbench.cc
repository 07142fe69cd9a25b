// Tests of the benchmark's compiled half with fixed inputs: the digest
// arithmetic and its stability across repetitions, span self-time
// arithmetic, and the workload definitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/machine.hh"
#include "digest.hh"
#include "spans.hh"
#include "workload/workload.hh"
#include "workloads.hh"

namespace simbench {
namespace {

using ascoma::ArchModel;

TEST(Digest, MatchesReferenceFnv1a) {
  // Reference values computed independently (FNV-1a 64 over the
  // little-endian bytes of each word; strings are length-prefixed).
  Digest zero;
  zero.add(std::uint64_t{0});
  EXPECT_EQ(zero.hex(), "a8c7f832281a39c5");
  Digest abc;
  abc.add(std::string_view("abc"));
  EXPECT_EQ(abc.hex(), "c11ab6d2519bc2b2");
  Digest both;
  both.add(std::uint64_t{42});
  both.add(std::string_view("abc"));
  EXPECT_EQ(both.hex(), "92c33661730cec44");
}

TEST(Digest, OrderSensitive) {
  Digest ab, ba;
  ab.add(std::uint64_t{1});
  ab.add(std::uint64_t{2});
  ba.add(std::uint64_t{2});
  ba.add(std::uint64_t{1});
  EXPECT_NE(ab.value(), ba.value());
}

TEST(Digest, CoversEverySimulatedStatistic) {
  const ascoma::core::RunResult base;
  const auto digest = [](const ascoma::core::RunResult& r) {
    Digest d;
    d.add(r);
    return d.value();
  };
  const std::uint64_t h = digest(base);

  ascoma::core::RunResult r = base;
  r.stats.parallel_cycles = ascoma::Cycle{1};
  EXPECT_NE(digest(r), h);
  r = base;
  r.stats.totals.time[ascoma::TimeBucket::kSync] = ascoma::Cycle{1};
  EXPECT_NE(digest(r), h);
  r = base;
  r.stats.totals.misses[ascoma::MissSource::kCoherence] = 1;
  EXPECT_NE(digest(r), h);
  r = base;
  r.stats.totals.kernel.nacks = 1;
  EXPECT_NE(digest(r), h);
  r = base;
  r.net_messages = 1;
  EXPECT_NE(digest(r), h);
}

ascoma::core::RunResult small_run(std::uint64_t seed) {
  ascoma::MachineConfig cfg;
  cfg.seed = seed;
  cfg.arch = ArchModel::kAsComa;
  cfg.memory_pressure = 0.9;
  // em3d's graph is drawn from the seed (lu's op stream is seed-free).
  auto wl = ascoma::workload::make_workload("em3d", 0.1);
  return ascoma::core::simulate(cfg, *wl);
}

TEST(Digest, RepeatsForOneSeedAndMovesWithTheSeed) {
  Digest a, b, c;
  a.add(small_run(7));
  b.add(small_run(7));
  c.add(small_run(8));
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_NE(a.hex(), c.hex());
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  // root [0,100] > a [10,40] > a1 [15,25];  root > b [50,60]
  const std::vector<SpanRecord> recs{{"root", 0, 100, -1},
                                     {"a", 10, 40, 0},
                                     {"a1", 15, 25, 1},
                                     {"b", 50, 60, 0}};
  const std::vector<std::uint64_t> self = self_times(recs);
  EXPECT_EQ(self[0], 60u);  // 100 - 30 - 10
  EXPECT_EQ(self[1], 20u);  // 30 - 10
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 10u);
}

TEST(Spans, RollUpPerNameAndNestingFromTheTracer) {
  Tracer t(true);
  {
    const Tracer::Span outer(t, "outer");
    for (int i = 0; i < 3; ++i) const Tracer::Span inner(t, "inner");
  }
  const std::vector<SpanStat> stats = t.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "outer");
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_EQ(stats[1].name, "inner");
  EXPECT_EQ(stats[1].count, 3u);
  EXPECT_EQ(stats[0].total_ns, stats[0].self_ns + stats[1].total_ns);
  for (const SpanRecord& r : t.records()) {
    if (std::string(r.name) == "inner") {
      EXPECT_EQ(r.parent, 0);
    }
  }
}

TEST(Spans, OffRecordsNothing) {
  Tracer t(false);
  { const Tracer::Span s(t, "x"); }
  EXPECT_TRUE(t.records().empty());
  EXPECT_TRUE(t.stats().empty());
}

TEST(Workloads, DefinitionsMatchTheirDescriptions) {
  for (const std::string& name : bench_workload_names()) {
    const auto w = make_bench_workload(name, 5);
    ASSERT_TRUE(w.has_value()) << name;
    for (const auto& job : w->jobs) {
      EXPECT_EQ(job.config.seed, 5u) << job.label;
      EXPECT_TRUE(job.config.check_invariants) << job.label;
    }
  }
  EXPECT_FALSE(make_bench_workload("nope", 1).has_value());

  const auto grid = make_bench_workload("paper_grid", 1);
  // 6 programs x (CC-NUMA once + 4 architectures x 9 pressures).
  EXPECT_EQ(grid->jobs.size(), 6u * (1 + 4 * 9));
  EXPECT_GE(grid->workers, 1u);

  const auto remote = make_bench_workload("remote", 1);
  EXPECT_EQ(remote->workers, 1u);
  for (const auto& job : remote->jobs)
    EXPECT_EQ(job.config.arch, ArchModel::kCcNuma);

  const auto thrash = make_bench_workload("thrash", 1);
  for (const auto& job : thrash->jobs)
    EXPECT_DOUBLE_EQ(job.config.memory_pressure, 0.9);
  EXPECT_EQ(thrash->jobs.size(), 7u);

  const auto local = make_bench_workload("local", 1);
  for (const auto& job : local->jobs) {
    EXPECT_EQ(job.config.arch, ArchModel::kAsComa);
    EXPECT_DOUBLE_EQ(job.config.memory_pressure, 0.5);
  }
}

}  // namespace
}  // namespace simbench
