// Latency-attribution profiler: histogram bucketing edge cases, the
// attribution-sums-to-end-to-end invariant on real runs, heat-map counts
// against the aggregated kernel statistics (exact even under event-buffer
// overflow), profile-dump round trips, regression detection in the baseline
// diff, and the obs exporter escaping audit the profiler's labels rely on.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "obs/export.hh"
#include "obs/probe.hh"
#include "prof/diff.hh"
#include "prof/histogram.hh"
#include "prof/profiler.hh"
#include "report/report.hh"
#include "workload/synthetic.hh"

namespace ascoma::prof {
namespace {

// Same hot-remote-set shape the machine tests use: enough refetch reuse to
// cross the relocation threshold so upgrades/downgrades/backoff all fire.
workload::SyntheticWorkload hot_workload(std::uint32_t iterations = 6) {
  workload::SyntheticParams p;
  p.nodes = 4;
  p.home_pages = 32;
  p.remote_pages = 24;
  p.iterations = iterations;
  p.sweeps_per_iteration = 3;
  p.loads_per_page = 32;
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

// ---- histogram bucketing ---------------------------------------------------

TEST(LatencyHistogram, BucketOfEdgeValues) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_of((1ull << 63) - 1), 63);
  EXPECT_EQ(LatencyHistogram::bucket_of(1ull << 63), 64);
  EXPECT_EQ(LatencyHistogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64);
}

TEST(LatencyHistogram, BucketUpperBounds) {
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound(64),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(LatencyHistogram, EmptyIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, RecordsZeroWithoutUnderflow) {
  LatencyHistogram h;
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.p50(), 0u);
}

TEST(LatencyHistogram, MaxValueLandsInTopBucketNotOverflow) {
  LatencyHistogram h;
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  h.record(big);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(h.max(), big);
  // percentile(1.0) clamps to the exact observed max, not the bucket bound.
  EXPECT_EQ(h.percentile(1.0), big);
}

TEST(LatencyHistogram, PercentileIsBucketUpperBoundClampedToMax) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record(10);  // bucket 4, bound 15
  h.record(1000);                             // bucket 10, bound 1023
  EXPECT_EQ(h.p50(), 15u);
  EXPECT_EQ(h.p90(), 15u);
  // The top 1% is the single 1000-cycle sample: clamped to max, not 1023.
  EXPECT_EQ(h.percentile(1.0), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.sum(), 99u * 10u + 1000u);
}

TEST(LatencyHistogram, MergeAddsCountsAndExtrema) {
  LatencyHistogram a, b;
  a.record(2);
  a.record(100);
  b.record(1);
  b.record(50000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 50000u);
  EXPECT_EQ(a.sum(), 2u + 100u + 1u + 50000u);
}

// ---- attribution on real runs ----------------------------------------------

TEST(Profiler, AttributionSumsMatchEndToEnd) {
  auto wl = hot_workload();
  Profiler prof;
  MachineConfig cfg = config(ArchModel::kAsComa, 0.7);
  obs::Probe probe(&prof);
  cfg.probe = &probe;
  const core::RunResult r = core::simulate(cfg, wl);
  EXPECT_GT(r.cycles(), Cycle{0});
  EXPECT_GT(prof.accesses(), 0u);
  // Every access's recorded segments summed exactly to its measured latency.
  EXPECT_EQ(prof.attribution_mismatches(), 0u);
  // Consequently the totals balance too: all component cycles == all
  // end-to-end cycles.
  std::uint64_t component_total = 0;
  for (int c = 0; c < kNumComponents; ++c)
    component_total += prof.component_cycles(static_cast<Component>(c));
  EXPECT_EQ(component_total, prof.merged_end_to_end().sum());
}

TEST(Profiler, AttributionHoldsPerArchitecture) {
  auto wl = hot_workload(4);
  for (ArchModel arch : {ArchModel::kCcNuma, ArchModel::kScoma,
                         ArchModel::kRNuma, ArchModel::kVcNuma,
                         ArchModel::kAsComa}) {
    Profiler prof;
    MachineConfig cfg = config(arch, 0.6);
    obs::Probe probe(&prof);
    cfg.probe = &probe;
    core::simulate(cfg, wl);
    EXPECT_EQ(prof.attribution_mismatches(), 0u) << to_string(arch);
    EXPECT_GT(prof.accesses(), 0u) << to_string(arch);
  }
}

TEST(Profiler, AttachedProfilerDoesNotPerturbTheRun) {
  auto wl = hot_workload();
  const MachineConfig plain = config(ArchModel::kAsComa, 0.7);
  const core::RunResult a = core::simulate(plain, wl);
  Profiler prof;
  MachineConfig cfg = plain;
  obs::Probe probe(&prof);
  cfg.probe = &probe;
  const core::RunResult b = core::simulate(cfg, wl);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.stats.totals.misses.total(), b.stats.totals.misses.total());
  EXPECT_EQ(a.stats.totals.kernel.upgrades, b.stats.totals.kernel.upgrades);
  EXPECT_EQ(a.stats.totals.time.total(), b.stats.totals.time.total());
}

// ---- heat map vs aggregated statistics -------------------------------------

// The per-page heat rows are folded from the event stream; their totals must
// reproduce the aggregated kernel statistics exactly (the same invariant the
// fault tests sweep).  The probe folds every event into the profiler itself,
// so the heat map needs no event ring, and stays exact when an attached
// ring overflows — the fold runs before the ring's capacity drop.
TEST(Profiler, HeatCountsMatchKernelStats) {
  auto wl = hot_workload();
  // 0 = a probe holding only the profiler; 8 = plus a ring that overflows.
  for (std::size_t capacity : {std::size_t{0}, std::size_t{8}}) {
    std::optional<obs::EventSink> sink;
    if (capacity > 0) sink.emplace(capacity);
    Profiler prof;
    obs::Probe probe(&prof, sink ? &*sink : nullptr);
    MachineConfig cfg = config(ArchModel::kAsComa, 0.8);
    cfg.probe = &probe;
    const core::RunResult r = core::simulate(cfg, wl);
    if (sink) {
      EXPECT_GT(sink->dropped(), 0u);
    }

    std::uint64_t upgrades = 0, downgrades = 0, suppressed = 0, faults = 0;
    for (const PageHeat& p : prof.page_heat()) {
      upgrades += p.upgrades;
      downgrades += p.downgrades;
      suppressed += p.suppressed;
      faults += p.faults;
    }
    const auto& k = r.stats.totals.kernel;
    EXPECT_EQ(upgrades, k.upgrades);
    EXPECT_EQ(downgrades, k.downgrades);
    EXPECT_EQ(suppressed, k.remap_suppressed);
    EXPECT_GT(faults, 0u);

    std::uint64_t raises = 0, drops = 0;
    for (const NodeHeat& n : prof.node_heat()) {
      raises += n.threshold_raises;
      drops += n.threshold_drops;
    }
    EXPECT_EQ(raises, k.threshold_raises);
    EXPECT_EQ(drops, k.threshold_drops);
  }
}

// ---- profile dump round trip -----------------------------------------------

TEST(Profiler, LatencyCsvRoundTripsThroughTheDiffParser) {
  auto wl = hot_workload(4);
  Profiler prof;
  MachineConfig cfg = config(ArchModel::kAsComa, 0.7);
  obs::Probe probe(&prof);
  cfg.probe = &probe;
  core::simulate(cfg, wl);

  std::ostringstream os;
  prof.write_latency_csv(os);
  std::vector<LatencyRow> rows;
  std::string error;
  ASSERT_TRUE(parse_latency_csv(os.str(), rows, error)) << error;
  ASSERT_FALSE(rows.empty());
  // The merged headline row leads and matches the merged histogram.
  EXPECT_EQ(rows.front().cls, "all");
  EXPECT_EQ(rows.front().component, "total");
  const LatencyHistogram all = prof.merged_end_to_end();
  EXPECT_EQ(rows.front().count, all.count());
  EXPECT_EQ(rows.front().sum, all.sum());
  EXPECT_EQ(rows.front().p99, all.p99());
}

TEST(Profiler, WriteProfileEmitsAllArtifacts) {
  auto wl = hot_workload(4);
  Profiler prof;
  MachineConfig cfg = config(ArchModel::kAsComa, 0.7);
  obs::Probe probe(&prof);
  cfg.probe = &probe;
  core::simulate(cfg, wl);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ascoma_prof_test_dump";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(prof.write_profile(dir.string()));
  for (const char* name : {"latency.csv", "latency.json", "heat.csv",
                           "heat.json", "summary.json"})
    EXPECT_TRUE(std::filesystem::exists(dir / name)) << name;
  std::filesystem::remove_all(dir);
}

// ---- regression gate -------------------------------------------------------

LatencyRow row(const std::string& cls, const std::string& component,
               std::uint64_t count, std::uint64_t mean, std::uint64_t p99) {
  LatencyRow r;
  r.cls = cls;
  r.component = component;
  r.count = count;
  r.sum = mean * count;
  r.p99 = p99;
  r.max = p99;
  return r;
}

TEST(ProfDiff, FlagsSeededP99Regression) {
  const std::vector<LatencyRow> base = {row("all", "total", 1000, 80, 200)};
  // +25% p99 (and +50 cycles absolute): both gates trip.
  const std::vector<LatencyRow> cand = {row("all", "total", 1000, 80, 250)};
  const DiffReport rep = diff_baselines(base, cand, {});
  EXPECT_EQ(rep.regressions(), 1u);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].kind, DiffFinding::Kind::kP99Regression);
  EXPECT_EQ(rep.findings[0].base_value, 200u);
  EXPECT_EQ(rep.findings[0].cand_value, 250u);
}

TEST(ProfDiff, SmallRelativeGrowthPasses) {
  const std::vector<LatencyRow> base = {row("all", "total", 1000, 80, 200)};
  const std::vector<LatencyRow> cand = {row("all", "total", 1000, 80, 210)};
  // +5% < 10% tol
  EXPECT_EQ(diff_baselines(base, cand, {}).regressions(), 0u);
}

TEST(ProfDiff, AbsoluteFloorShieldsTinyHistograms) {
  // 2 -> 4 cycles is +100% but only +2 absolute: under the 16-cycle floor.
  const std::vector<LatencyRow> base = {row("l1_hit", "l1", 5000, 2, 2)};
  const std::vector<LatencyRow> cand = {row("l1_hit", "l1", 5000, 4, 4)};
  EXPECT_EQ(diff_baselines(base, cand, {}).regressions(), 0u);
}

TEST(ProfDiff, UnderMinCountRowsAreSkipped) {
  const std::vector<LatencyRow> base = {row("rac_hit", "total", 8, 50, 100)};
  const std::vector<LatencyRow> cand = {row("rac_hit", "total", 8, 500, 1000)};
  const DiffReport rep = diff_baselines(base, cand, {});
  EXPECT_EQ(rep.regressions(), 0u);
  EXPECT_EQ(rep.rows_compared, 0u);
}

TEST(ProfDiff, MeanRegressionIsCaughtIndependently) {
  // p99 steady, mean up 50%: the mean gate alone must fire.
  const std::vector<LatencyRow> base = {row("all", "total", 1000, 100, 400)};
  const std::vector<LatencyRow> cand = {row("all", "total", 1000, 150, 400)};
  const DiffReport rep = diff_baselines(base, cand, {});
  EXPECT_EQ(rep.regressions(), 1u);
  EXPECT_EQ(rep.findings[0].kind, DiffFinding::Kind::kMeanRegression);
}

TEST(ProfDiff, NewAndVanishedRowsAreInformational) {
  const std::vector<LatencyRow> base = {row("all", "total", 1000, 80, 200),
                                        row("scoma_hit", "dram", 500, 30, 60)};
  const std::vector<LatencyRow> cand = {row("all", "total", 1000, 80, 200),
                                        row("rac_hit", "rac", 500, 10, 20)};
  const DiffReport rep = diff_baselines(base, cand, {});
  EXPECT_EQ(rep.regressions(), 0u);
  ASSERT_EQ(rep.findings.size(), 2u);
  EXPECT_FALSE(rep.findings[0].is_regression());
  EXPECT_FALSE(rep.findings[1].is_regression());
}

TEST(ProfDiff, EndToEndDirectoryComparisonDetectsRegression) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "ascoma_diff_test";
  fs::remove_all(root);
  fs::create_directories(root / "base");
  fs::create_directories(root / "cand");
  const std::string header = Profiler::latency_csv_header();
  {
    std::ofstream os(root / "base" / "latency.csv");
    os << header << "\nall,total,1000,80000,10,60,120,200,400\n";
  }
  {
    std::ofstream os(root / "cand" / "latency.csv");
    os << header << "\nall,total,1000,80000,10,60,120,300,600\n";
  }
  const DiffReport rep = diff_baselines((root / "base").string(),
                                       (root / "cand").string(), {});
  EXPECT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(rep.regressions(), 1u);

  const DiffReport missing =
      diff_baselines((root / "base").string(), (root / "nope").string(), {});
  EXPECT_FALSE(missing.ok());
  // A file where a profile directory is expected is an input error, too.
  const DiffReport file = diff_baselines(
      (root / "base").string(), (root / "cand" / "latency.csv").string(), {});
  EXPECT_FALSE(file.ok());
  EXPECT_NE(file.error.find("not a profile directory"), std::string::npos)
      << file.error;
  fs::remove_all(root);
}

TEST(ProfDiff, MalformedCsvIsRejected) {
  std::vector<LatencyRow> rows;
  std::string error;
  EXPECT_FALSE(parse_latency_csv("not,a,header\n1,2,3\n", rows, error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_latency_csv(
      Profiler::latency_csv_header() + "\nall,total,1,2,3\n", rows, error));
  EXPECT_FALSE(error.empty());
}

// ---- report latency columns ------------------------------------------------

TEST(Report, CsvLatencyColumnsExtendTheBaseSchema) {
  const std::string base = report::csv_header();
  const std::string ext = report::csv_header(true);
  ASSERT_GT(ext.size(), base.size());
  EXPECT_EQ(ext.substr(0, base.size()), base);  // strict prefix
  EXPECT_EQ(ext.substr(base.size()), ",lat_min,lat_p50,lat_p99,lat_max");
  EXPECT_EQ(report::csv_header(false), base);
}

TEST(Report, CsvRowWithProfilerAppendsHistogramValues) {
  auto wl = hot_workload(4);
  Profiler prof;
  MachineConfig cfg = config(ArchModel::kAsComa, 0.7);
  obs::Probe probe(&prof);
  cfg.probe = &probe;
  const core::RunResult r = core::simulate(cfg, wl);
  const std::string plain = report::csv_row("synthetic", "ASCOMA", r);
  const std::string with = report::csv_row("synthetic", "ASCOMA", r, prof);
  ASSERT_GT(with.size(), plain.size());
  EXPECT_EQ(with.substr(0, plain.size()), plain);
  const LatencyHistogram all = prof.merged_end_to_end();
  std::ostringstream want;
  want << ',' << all.min() << ',' << all.p50() << ',' << all.p99() << ','
       << all.max();
  EXPECT_EQ(with.substr(plain.size()), want.str());
}

// ---- obs exporter escaping audit -------------------------------------------

TEST(ObsEscaping, JsonEscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape(std::string("a\nb")), "a\\nb");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(ObsEscaping, CsvFieldQuotesCommasQuotesAndNewlines) {
  EXPECT_EQ(obs::csv_field("plain"), "plain");
  EXPECT_EQ(obs::csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(obs::csv_field("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(obs::csv_field("a\nb"), "\"a\nb\"");
}

}  // namespace
}  // namespace ascoma::prof
