#pragma once

// Host-side telemetry for the sweep runner: the wall clock, the process
// peak resident set and a per-thread heap-allocation counter.  These feed
// SweepTiming (core/sweep.hh) and, through it, the BENCH_simspeed.json rows
// the speed gate compares (ARCHITECTURE.md §14).
//
// The allocation counter is fed by replacement `operator new/delete`
// implementations in host.cc, disabled automatically under ASan/TSan, whose
// runtimes own the allocator.  Each allocation costs one thread_local
// increment on top of malloc.

#include <cstdint>

#include "common/types.hh"

namespace ascoma::core {

/// Injectable monotonic host clock; tests substitute a scripted one through
/// SweepOptions::clock.
class HostClock {
 public:
  virtual ~HostClock() = default;
  /// Monotonic host time.  Only differences are meaningful.
  virtual HostNs now() = 0;
};

/// std::chrono::steady_clock-backed production clock.
class SteadyClock final : public HostClock {
 public:
  HostNs now() override;
};

/// The process-wide production clock (a SteadyClock).  Never null.
HostClock* default_clock();

/// Process high-water resident set size in bytes (VmHWM from
/// /proc/self/status, getrusage(RUSAGE_SELF) otherwise).  0 when neither
/// source is available.
std::uint64_t peak_rss_bytes();

/// Number of heap allocations performed by the calling thread since it
/// started.  Monotonic; callers diff two readings to attribute allocations
/// to a region.  Always 0 when the counting hook is compiled out (a
/// sanitizer build).
std::uint64_t thread_alloc_count();

/// True when the operator-new counting hook is active in this build.
bool alloc_hook_active();

}  // namespace ascoma::core
