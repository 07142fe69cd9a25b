// Unified live-metrics registry tests (ARCHITECTURE.md §16): find-or-create
// identity, sharded lock-free hot-path counting under real threads, typed
// strong-quantity overloads, log2-histogram agreement with
// prof::LatencyHistogram, and the Prometheus text exposition grammar
// (HELP/TYPE once per family, sorted families, escaped label values,
// cumulative histogram buckets whose +Inf equals _count).

#include "obs/metrics.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "prof/histogram.hh"

namespace ascoma::obs {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(Metrics, FindOrCreateReturnsTheSameChild) {
  Registry reg;
  Counter& a = reg.counter("ascoma_test_total", "help");
  Counter& b = reg.counter("ascoma_test_total", "help");
  EXPECT_EQ(&a, &b);
  // Distinct labels are distinct children.
  Counter& c = reg.counter("ascoma_test_total", "help", {{"k", "v"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, LabelOrderIsCanonicalized) {
  Registry reg;
  Counter& a = reg.counter("ascoma_pairs_total", "help",
                           {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("ascoma_pairs_total", "help",
                           {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, CounterSumsAcrossThreads) {
  Registry reg;
  Counter& c = reg.counter("ascoma_threads_total", "help");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kPerThread);
}

TEST(Metrics, TypedOverloadsTakeStrongQuantities) {
  Registry reg;
  Counter& c = reg.counter("ascoma_typed_total", "help");
  c.inc(Cycle{41});
  c.inc(HostNs{1});
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = reg.gauge("ascoma_typed_gauge", "help");
  g.set(ByteCount{4096});
  EXPECT_DOUBLE_EQ(g.value(), 4096.0);

  Histogram& h = reg.histogram("ascoma_typed_ns", "help");
  h.observe(Cycle{100});
  EXPECT_EQ(h.snapshot().count, 1u);
  EXPECT_EQ(h.snapshot().sum, 100u);
}

TEST(Metrics, GaugeSetAddSub) {
  Registry reg;
  Gauge& g = reg.gauge("ascoma_g", "help");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.sub(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.5);
}

TEST(Metrics, HistogramBucketsMatchProfHistogram) {
  Registry reg;
  Histogram& h = reg.histogram("ascoma_h_ns", "help");
  const std::uint64_t values[] = {0, 1, 2, 3, 127, 128, 1 << 20};
  for (std::uint64_t v : values) h.observe(v);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 7u);
  for (std::uint64_t v : values) {
    const int b = prof::LatencyHistogram::bucket_of(v);
    EXPECT_GT(snap.buckets[static_cast<std::size_t>(b)], 0u)
        << "value " << v << " missing from bucket " << b;
    EXPECT_LE(v, prof::LatencyHistogram::bucket_upper_bound(b));
  }
}

TEST(Metrics, ValidMetricNames) {
  EXPECT_TRUE(valid_metric_name("ascoma_sweep_jobs_total"));
  EXPECT_TRUE(valid_metric_name("a:b_c9"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("9starts_with_digit"));
  EXPECT_FALSE(valid_metric_name("has-dash"));
  // Label names additionally reject ':'.
  EXPECT_TRUE(valid_metric_name("node", /*label=*/true));
  EXPECT_FALSE(valid_metric_name("a:b", /*label=*/true));
}

TEST(Metrics, PrometheusEscape) {
  EXPECT_EQ(prometheus_escape("plain"), "plain");
  EXPECT_EQ(prometheus_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Metrics, PrometheusExpositionGrammar) {
  Registry reg;
  reg.counter("ascoma_z_total", "last family", {{"state", "done"}}).inc(3);
  reg.counter("ascoma_z_total", "last family", {{"state", "cached"}}).inc(1);
  reg.gauge("ascoma_a_gauge", "first family").set(std::uint64_t{7});
  Histogram& h = reg.histogram("ascoma_m_ns", "histogram \"help\"");
  h.observe(std::uint64_t{1});
  h.observe(std::uint64_t{1});
  h.observe(std::uint64_t{300});
  reg.counter("ascoma_esc_total", "escapes", {{"label", "a\"b\\c\nd"}})
      .inc();

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();

  // HELP/TYPE exactly once per family, families sorted by name.
  EXPECT_EQ(count_occurrences(text, "# HELP ascoma_z_total"), 1u);
  EXPECT_EQ(count_occurrences(text, "# TYPE ascoma_z_total counter"), 1u);
  EXPECT_LT(text.find("# HELP ascoma_a_gauge"),
            text.find("# HELP ascoma_esc_total"));
  EXPECT_LT(text.find("# HELP ascoma_esc_total"),
            text.find("# HELP ascoma_m_ns"));
  EXPECT_LT(text.find("# HELP ascoma_m_ns"),
            text.find("# HELP ascoma_z_total"));

  // Values and label rendering.
  EXPECT_NE(text.find("ascoma_z_total{state=\"done\"} 3"), std::string::npos);
  EXPECT_NE(text.find("ascoma_z_total{state=\"cached\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ascoma_a_gauge 7"), std::string::npos);
  EXPECT_NE(text.find("ascoma_esc_total{label=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);

  // Histogram: cumulative buckets, a +Inf bucket equal to _count, and _sum.
  EXPECT_NE(text.find("# TYPE ascoma_m_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("ascoma_m_ns_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("ascoma_m_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ascoma_m_ns_sum 302"), std::string::npos);
  EXPECT_NE(text.find("ascoma_m_ns_count 3"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

// Producers hammer counters/gauges/histograms while a reader scrapes the
// whole registry: the shard slots are atomics and the registration map is
// mutex-guarded, so this is race-free (the CI TSan job runs this test).
TEST(Metrics, ConcurrentProducersAndScrapers) {
  Registry reg;
  Counter& c = reg.counter("ascoma_race_total", "help");
  Gauge& g = reg.gauge("ascoma_race_gauge", "help");
  Histogram& h = reg.histogram("ascoma_race_ns", "help");
  std::atomic<bool> stop{false};

  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t)
    pool.emplace_back([&] {
      for (int i = 0; i < 20'000; ++i) {
        c.inc();
        g.set(static_cast<double>(i));
        h.observe(static_cast<std::uint64_t>(i));
      }
    });
  std::thread scraper([&] {
    while (!stop.load()) {
      std::ostringstream os;
      reg.write_prometheus(os);
      EXPECT_NE(os.str().find("ascoma_race_total"), std::string::npos);
    }
  });
  // A late registration while scraping is also legal.
  reg.counter("ascoma_race_late_total", "help").inc();
  for (auto& t : pool) t.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(c.value(), 80'000u);
  EXPECT_EQ(h.snapshot().count, 80'000u);
}

// ---- memory-order contracts (lint_concurrency C1, ARCHITECTURE.md §18) -----

// Pins the rationale written at Counter::value(): relaxed scrape loads are
// sufficient, not just tolerable, because every shard is monotonic — a live
// scrape may lag the true total but can never exceed it, successive scrapes
// never go backwards (per-location coherence orders same-thread relaxed
// loads of each shard), and the value is exact once the writers are joined.
TEST(MetricsOrdering, RelaxedScrapeNeverOvercounts) {
  Registry reg;
  Counter& c = reg.counter("ascoma_order_total", "help");
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;

  std::vector<std::thread> pool;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  std::atomic<bool> writers_done{false};
  std::thread joiner([&] {
    for (auto& t : pool) t.join();
    writers_done.store(true);
  });

  std::uint64_t prev = 0;
  while (!writers_done.load()) {
    const std::uint64_t now = c.value();
    ASSERT_GE(now, prev) << "a scrape went backwards";
    ASSERT_LE(now, kThreads * kPerThread) << "a scrape overcounted";
    prev = now;
  }
  joiner.join();
  // Thread join is a full happens-before edge: the total is now exact.
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

// Pins the rationale at Gauge::add(): the relaxed CAS loop needs only the
// atomicity of the read-modify-write — under full contention no increment
// is lost, and the failure path re-reads the fresh value returned by the
// CAS itself, so no acquire edge is required either.
TEST(MetricsOrdering, GaugeCasRetryLoopIsExactUnderContention) {
  Registry reg;
  Gauge& g = reg.gauge("ascoma_order_gauge", "help");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25'000;

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  for (auto& t : pool) t.join();
  // Every add survived the retry races (doubles are exact to 2^53).
  EXPECT_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
}

}  // namespace
}  // namespace ascoma::obs
