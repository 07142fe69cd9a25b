#include "rep.hh"

#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>

#include "core/machine.hh"
#include "core/sweep.hh"
#include "digest.hh"
#include "workload/workload.hh"

namespace simbench {

/// Keeps the calibration loop's result observable (external linkage).
std::uint64_t g_calibration_sink = 0;

namespace {

using ascoma::core::Machine;
using ascoma::core::RunResult;
using ascoma::core::SweepJob;

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::unique_ptr<ascoma::workload::Workload> make(const SweepJob& job,
                                                 Tracer& tracer) {
  const Tracer::Span span(tracer, "workload.make");
  auto wl = ascoma::workload::make_workload(job.workload, job.workload_scale);
  if (wl == nullptr) throw std::runtime_error("unknown program " + job.workload);
  return wl;
}

std::unique_ptr<Machine> construct(const SweepJob& job,
                                   const ascoma::workload::Workload& wl,
                                   Tracer& tracer) {
  const Tracer::Span span(tracer, "core.machine");
  return std::make_unique<Machine>(job.config, wl);
}

void fold(RepResult& rep, Digest& digest, const SweepJob& job,
          const RunResult& r, Tracer& tracer) {
  const Tracer::Span span(tracer, "report.fold");
  if (!r.invariants_checked) {
    ++rep.failed;
    rep.errors.push_back(job.label + ": invariant sweep did not run");
  }
  digest.add(job.label);
  digest.add(r);
  rep.totals.add(r.stats.totals);
  rep.net_messages += r.net_messages;
  rep.invalidations += r.directory_invalidations;
  rep.forwards += r.directory_forwards;
  rep.writebacks += r.writebacks_local + r.writebacks_remote;
  rep.lock_acquisitions += r.lock_acquisitions;
  rep.barrier_episodes += r.barrier_episodes;
  rep.points.push_back(JobPoint{job.workload, job.config.arch,
                                job.config.memory_pressure,
                                r.stats.parallel_cycles.value()});
}

/// One worker: jobs run in order, each timed in its setup and run halves.
void run_in_order(const BenchWorkload& w, RepResult& rep, Digest& digest,
                  Tracer& tracer) {
  const std::uint64_t start = now_ns();
  for (const SweepJob& job : w.jobs) {
    const Tracer::Span span(tracer, "job");
    const std::uint64_t t0 = now_ns();
    try {
      const auto wl = make(job, tracer);
      const auto machine = construct(job, *wl, tracer);
      const std::uint64_t t1 = now_ns();
      RunResult r;
      {
        const Tracer::Span run_span(tracer, "core.run");
        r = machine->run();
      }
      const std::uint64_t t2 = now_ns();
      rep.setup_s += seconds(t1 - t0);
      rep.run_s += seconds(t2 - t1);
      fold(rep, digest, job, r, tracer);
    } catch (const std::exception& e) {
      ++rep.failed;
      rep.errors.push_back(job.label + ": " + e.what());
    }
    rep.busy_s += seconds(now_ns() - t0);
  }
  rep.wall_s = seconds(now_ns() - start);
}

/// The sweep pool: set-up is timed in a separate pass (run_sweep constructs
/// its machines internally), then every job runs through core::run_sweep.
void run_swept(const BenchWorkload& w, RepResult& rep, Digest& digest,
               Tracer& tracer) {
  {
    const Tracer::Span span(tracer, "setup");
    for (const SweepJob& job : w.jobs) {
      const std::uint64_t t0 = now_ns();
      try {
        const auto wl = make(job, tracer);
        const auto machine = construct(job, *wl, tracer);
        rep.setup_s += seconds(now_ns() - t0);
      } catch (const std::exception& e) {
        ++rep.failed;
        rep.errors.push_back(job.label + ": set-up: " + e.what());
      }
    }
  }
  ascoma::core::SweepOptions opts;
  opts.threads = w.workers;
  opts.straggler_factor = 0.0;
  std::vector<ascoma::core::SweepResult> results;
  const std::uint64_t t0 = now_ns();
  try {
    const Tracer::Span span(tracer, "core.run_sweep");
    results = ascoma::core::run_sweep(w.jobs, opts);
  } catch (const std::exception& e) {
    // run_sweep rethrows the first failure after its pool joins, so which
    // jobs finished is unknown: count them all.
    rep.failed = rep.jobs;
    rep.errors.push_back(std::string("run_sweep: ") + e.what());
    return;
  }
  rep.wall_s = seconds(now_ns() - t0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double job_s = seconds(results[i].timing.wall.value());
    rep.run_s += job_s;
    rep.busy_s += job_s;
    fold(rep, digest, w.jobs[i], results[i].result, tracer);
  }
}

/// VmHWM of the calling process in bytes (0 where /proc is unavailable).
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

/// The calibration loop's cache-model tables: 64 Ki sets of 8 ways, tags
/// (4 MiB) and ages (512 KiB), larger than a core's L2.  Mapped and unmapped
/// directly and filled before the clock starts, so the loop neither
/// page-faults inside its timing nor changes the state of malloc.
class CalibrationTables {
 public:
  static constexpr std::size_t kSets = std::size_t{1} << 16;
  static constexpr int kWays = 8;
  static constexpr std::size_t kEntries = kSets * kWays;
  static constexpr std::size_t kBytes = kEntries * (sizeof(std::uint64_t) + 1);

  CalibrationTables()
      : base_(mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (base_ == MAP_FAILED) throw std::runtime_error("calibration: mmap failed");
    tags = static_cast<std::uint64_t*>(base_);
    ages = reinterpret_cast<std::uint8_t*>(tags + kEntries);
    std::fill_n(tags, kEntries, ~std::uint64_t{0});
    std::fill_n(ages, kEntries, std::uint8_t{0});
  }
  ~CalibrationTables() { munmap(base_, kBytes); }
  CalibrationTables(const CalibrationTables&) = delete;
  CalibrationTables& operator=(const CalibrationTables&) = delete;

  std::uint64_t* tags = nullptr;
  std::uint8_t* ages = nullptr;

 private:
  void* base_;
};

double calibrate() {
  // A fixed set-associative cache model fed by a xorshift address stream
  // with a hot region: random probes of tables larger than L2 and
  // data-dependent branches, the kind of work the simulator does but none
  // of its code.  Its time tracks what slows the simulator on a shared
  // host: the core's clock and share, and other tenants' pressure on the
  // caches, which a register-only loop does not feel.
  constexpr int kIters = 400'000;
  CalibrationTables cache;
  std::uint64_t x = 12345, hits = 0;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t line =
        (x & 0xFFFF) < 40000 ? (x >> 20) & 0x3FFFF : (x >> 20) & 0xFFFFFF;
    const std::size_t base =
        (line % CalibrationTables::kSets) * CalibrationTables::kWays;
    std::uint64_t* tag = cache.tags + base;
    std::uint8_t* age = cache.ages + base;
    int way = -1;
    for (int k = 0; k < CalibrationTables::kWays; ++k)
      if (tag[k] == line) {
        way = k;
        break;
      }
    if (way >= 0) {
      ++hits;
    } else {
      way = 0;
      for (int k = 1; k < CalibrationTables::kWays; ++k)
        if (age[k] < age[way]) way = k;
      tag[way] = line;
    }
    age[way] = 255;
    for (int k = 0; k < CalibrationTables::kWays; ++k)
      if (k != way && age[k] != 0) --age[k];
  }
  const std::uint64_t t1 = now_ns();
  g_calibration_sink += hits;
  return seconds(t1 - t0);
}

}  // namespace

void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) last = c;
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  sched_setaffinity(0, sizeof one, &one);
}

RepResult run_rep(const BenchWorkload& w, Tracer& tracer) {
  if (w.workers == 1) pin_to_one_cpu();
  RepResult rep;
  rep.workers = w.workers;
  rep.jobs = w.jobs.size();
  Digest digest;
  digest.add(w.name);
  const double calib_before = calibrate();
  {
    const Tracer::Span span(tracer, "rep");
    if (w.workers > 1)
      run_swept(w, rep, digest, tracer);
    else
      run_in_order(w, rep, digest, tracer);
  }
  // Read before the closing calibration, whose tables are not the workload's.
  rep.peak_rss_bytes = peak_rss_bytes();
  rep.calib_s = (calib_before + calibrate()) / 2.0;
  rep.digest = digest.hex();
  return rep;
}

}  // namespace simbench
