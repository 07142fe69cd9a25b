#pragma once

// Log2-bucketed latency histogram — the storage unit of the latency
// attribution profiler (src/prof/profiler.hh).
//
// Bucket i holds values whose bit width is i: bucket 0 is exactly {0},
// bucket 1 is {1}, bucket 2 is [2,3], bucket 3 is [4,7], ..., bucket 64 is
// [2^63, 2^64-1].  Every std::uint64_t value lands in exactly one bucket, so
// there is no separate overflow bucket to mishandle.  Alongside the buckets
// the histogram keeps exact count/sum/min/max, so means and extrema are
// precise while percentiles are bucket-resolution upper bounds — good enough
// to rank p50/p90/p99 shifts, cheap enough to keep one histogram per
// (access class x latency component).

#include <array>
#include <bit>
#include <cstdint>

#include "common/types.hh"

namespace ascoma::prof {

class LatencyHistogram {
 public:
  /// One bucket per possible bit width of a uint64 value (0..64).
  static constexpr int kNumBuckets = 65;

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Smallest bucket upper bound below which at least ceil(p * count)
  /// recorded values fall, clamped to the exact observed max (so
  /// percentile(1.0) == max()).  Returns 0 on an empty histogram.
  /// `p` is clamped to (0, 1].
  std::uint64_t percentile(double p) const;

  std::uint64_t p50() const { return percentile(0.50); }
  std::uint64_t p90() const { return percentile(0.90); }
  std::uint64_t p99() const { return percentile(0.99); }

  std::uint64_t bucket_count(int i) const { return buckets_[i]; }

  /// Bucket index of `v` (its bit width): 0 for 0, 64 for values >= 2^63.
  static constexpr int bucket_of(std::uint64_t v) {
    return static_cast<int>(std::bit_width(v));  // 0 -> 0, [2^(i-1), 2^i) -> i
  }
  /// Largest value bucket `i` can hold (2^i - 1; bucket 0 -> 0).
  static constexpr std::uint64_t bucket_upper_bound(int i) {
    if (i <= 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace ascoma::prof
