#pragma once

// Unified live-metrics registry (ARCHITECTURE.md §16).
//
// Everything the repo previously counted in ad-hoc per-subsystem structs
// (sweep progress, protocol/fault event tallies, store hits, the adaptive
// policy's back-off level and pool occupancy) can be published here under
// one name+label scheme and scraped while the sweep is still running — this
// registry is the data source behind obsd's
// `GET /metrics` Prometheus endpoint.
//
// Concurrency model: registration (find-or-create of a metric) takes a
// mutex, so producers resolve their handles once, up front.  The hot path —
// Counter::inc / Gauge::set / Histogram::observe — is lock-free: every
// metric keeps kMetricShards cacheline-padded atomic slots and a producer
// thread only ever touches its own slot with relaxed operations.  A scrape
// aggregates across shards, so readers never block writers and concurrent
// scrapes are race-free (the TSan acceptance gate of the obsd PR).
//
// Dimensions: the histogram buckets are exactly prof::LatencyHistogram's
// log2 buckets (bucket i holds values of bit width i), so `/metrics`
// percentile math lines up with the `--profile` dumps; the typed observe()/
// inc()/set() overloads accept any strong quantity with a .value() accessor
// (Cycle, ByteCount, HostNs) without a cast at the call site.
//
// Cost when unused: nothing in the simulator references a Registry unless
// one is attached (MachineConfig::registry / SweepOptions::serve_port), so
// the default run allocates no metric and takes no branch — observability
// stays free when off.

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sync.hh"
#include "prof/histogram.hh"

namespace ascoma::obs {

/// Shard count of every metric: enough to keep a 16-thread sweep's workers
/// off each other's cachelines, small enough that scraping stays trivial.
inline constexpr unsigned kMetricShards = 16;

/// The shard index of the calling thread (stable for the thread's lifetime,
/// assigned round-robin on first use).
unsigned this_thread_shard();

namespace detail {
struct alignas(64) ShardSlot {
  std::atomic<std::uint64_t> v{0};
};

/// True for the strong quantity types (Cycle, ByteCount, HostNs, ...) whose
/// raw magnitude a metric can carry.
template <typename Q>
concept StrongQuantity = requires(const Q q) {
  { q.value() } -> std::convertible_to<std::uint64_t>;
};
}  // namespace detail

/// Monotonically increasing 64-bit counter (Prometheus `counter`).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    // order: relaxed — per-thread shard of a monotonic sum; only this
    // thread writes the slot, and scrapes tolerate lag (see value()).
    shards_[this_thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  template <detail::StrongQuantity Q>
  void inc(Q q) {
    inc(std::uint64_t{q.value()});
  }

  /// Sum over all shards — the scrape-side read.  Relaxed is sufficient
  /// (not just tolerable) because each shard is monotonic: a scrape can
  /// observe a slightly stale sum, never a decreasing or invented one, and
  /// the final value is exact once the writer threads have been joined
  /// (thread join is a full happens-before edge).  Pinned by
  /// MetricsOrdering.RelaxedScrapeNeverOvercounts in tests/test_metrics.cc.
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    // order: relaxed — monotonic per-shard sums; see the contract above.
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  std::array<detail::ShardSlot, kMetricShards> shards_;
};

/// Last-writer-wins gauge (Prometheus `gauge`).  Stored as a double so
/// ratios (sim-rate, pressure) and raw counts share one type; set() is a
/// single relaxed store, add() a CAS loop for the rare read-modify-write
/// user (in-flight job tracking).
class Gauge {
 public:
  // order: relaxed — last-writer-wins scalar; no other data is published
  // through this store, so no release edge is needed.
  void set(double v) { bits_.store(encode(v), std::memory_order_relaxed); }
  void set(std::uint64_t v) { set(static_cast<double>(v)); }
  template <detail::StrongQuantity Q>
  void set(Q q) {
    set(std::uint64_t{q.value()});
  }

  void add(double delta) {
    // order: relaxed — the CAS needs atomicity of the read-modify-write
    // only; bits_ is the sole shared datum (nothing else is published via
    // this location), and on failure the loop re-reads the fresh value the
    // CAS itself returned, so no acquire edge is needed either.
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, encode(decode(cur) + delta),
                                        std::memory_order_relaxed)) {
    }
  }
  void sub(double delta) { add(-delta); }

  // order: relaxed — last-writer-wins read; staleness is acceptable for a
  // scrape and there is no dependent data to order against.
  double value() const { return decode(bits_.load(std::memory_order_relaxed)); }

 private:
  static std::uint64_t encode(double v);
  static double decode(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};
};

/// Sharded log2 histogram (Prometheus `histogram`): the bucket boundaries
/// are prof::LatencyHistogram::bucket_upper_bound(i), one bucket per bit
/// width, so there is no configuration and no value can overflow.
class Histogram {
 public:
  static constexpr int kNumBuckets = prof::LatencyHistogram::kNumBuckets;

  void observe(std::uint64_t v) {
    Shard& s = shards_[this_thread_shard()];
    // order: relaxed — per-thread shard, monotonic bucket/sum tallies; a
    // concurrent scrape may see the bucket without the sum (or vice versa),
    // which snapshot() documents as acceptable mid-run skew.
    s.buckets[static_cast<std::size_t>(prof::LatencyHistogram::bucket_of(v))]
        .fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }
  template <detail::StrongQuantity Q>
  void observe(Q q) {
    observe(std::uint64_t{q.value()});
  }

  /// Scrape-side aggregate.
  struct Snapshot {
    std::array<std::uint64_t, kNumBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  Snapshot snapshot() const;

 private:
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
    // Cacheline-pad the tail so neighbouring shards never share a line.
    char pad[64];
  };
  std::array<Shard, kMetricShards> shards_;
};

/// One `name=value` label pair; values may be arbitrary strings (escaped on
/// exposition), names must match the Prometheus label charset.
using Label = std::pair<std::string, std::string>;

/// True when `s` is a legal Prometheus metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
/// or, with `label` set, a legal label name (no ':').
bool valid_metric_name(std::string_view s, bool label = false);

/// Escape a label value for the text exposition format (\\, \", \n).
std::string prometheus_escape(std::string_view s);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create.  The returned reference is stable for the registry's
  /// lifetime (metrics live in deques); resolving the same (name, labels)
  /// twice yields the same object, so producers may re-resolve instead of
  /// caching when convenient.  `help` is recorded on first registration.
  /// Metric and label names are validated with ASCOMA_CHECK — a bad name is
  /// a programming error, not input.
  Counter& counter(std::string_view name, std::string_view help,
                   std::vector<Label> labels = {}) ASCOMA_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name, std::string_view help,
               std::vector<Label> labels = {}) ASCOMA_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<Label> labels = {}) ASCOMA_EXCLUDES(mu_);

  /// Number of registered (name, labels) children across all families.
  std::size_t size() const ASCOMA_EXCLUDES(mu_);

  /// Prometheus text exposition format, version 0.0.4: families sorted by
  /// name, each emitting `# HELP` / `# TYPE` once followed by its children
  /// in registration order; histograms emit cumulative `_bucket{le=...}`
  /// rows (only up to the highest non-empty bucket, then `+Inf`), `_sum`
  /// and `_count`.  tools/lint_metrics.py validates this output in CI.
  void write_prometheus(std::ostream& os) const ASCOMA_EXCLUDES(mu_);

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Child {
    std::vector<Label> labels;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };
  struct Family {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<Child> children;
  };

  Family& family(std::string_view name, std::string_view help, Kind kind)
      ASCOMA_REQUIRES(mu_);
  Child& child(Family& f, std::vector<Label> labels) ASCOMA_REQUIRES(mu_);

  // mu_ guards the registration structures only; the metric values behind
  // the Child pointers are lock-free atomics, read and written without it.
  mutable Mutex mu_;
  std::vector<Family> families_ ASCOMA_GUARDED_BY(mu_);  // sorted by name
  // Stable storage behind Child pointers: a deque never moves elements, so
  // a reference handed out under a past mu_ hold stays valid forever.
  std::deque<Counter> counters_ ASCOMA_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ ASCOMA_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ ASCOMA_GUARDED_BY(mu_);
};

}  // namespace ascoma::obs
