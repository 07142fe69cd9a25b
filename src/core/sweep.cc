#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.hh"
#include "workload/workload.hh"

namespace ascoma::core {

namespace {

std::string fmt_rate(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Median wall time over the sweep (mean of the middle two when even).
HostNs median_wall(const std::vector<SweepResult>& results) {
  std::vector<HostNs> walls;
  walls.reserve(results.size());
  for (const SweepResult& r : results) walls.push_back(r.timing.wall);
  std::sort(walls.begin(), walls.end());
  const std::size_t n = walls.size();
  if (n == 0) return HostNs{0};
  if (n % 2 == 1) return walls[n / 2];
  return (walls[n / 2 - 1] + walls[n / 2]) / 2;
}

}  // namespace

std::uint64_t SweepResult::accesses() const {
  return result.stats.totals.shared_loads + result.stats.totals.shared_stores;
}

double SweepResult::sim_rate_hz() const {
  if (timing.wall.value() == 0) return 0.0;
  return static_cast<double>(result.stats.parallel_cycles.value()) /
         (static_cast<double>(timing.wall.value()) * 1e-9);
}

std::string progress_line(std::size_t done, std::size_t total,
                          HostNs wall, Cycle cycles_done,
                          std::uint64_t seq) {
  const double wall_s = static_cast<double>(wall.value()) * 1e-9;
  const double rate =
      wall_s > 0.0 ? static_cast<double>(cycles_done.value()) / wall_s : 0.0;
  // Mean-job extrapolation; jobs are heterogeneous, so this is a coarse
  // bound, not a promise (the straggler flag exists for a reason).
  std::uint64_t eta_ms = 0;
  if (done > 0 && total > done) {
    const double per_job = wall_s / static_cast<double>(done);
    eta_ms = static_cast<std::uint64_t>(
        per_job * static_cast<double>(total - done) * 1e3);
  }
  std::ostringstream os;
  os << "{\"sweep\":\"progress\",\"seq\":" << seq << ",\"done\":" << done
     << ",\"total\":" << total << ",\"wall_ms\":" << wall.value() / 1'000'000
     << ",\"sim_cycles\":" << cycles_done
     << ",\"sim_rate_hz\":" << fmt_rate(rate) << ",\"eta_ms\":" << eta_ms
     << '}';
  return os.str();
}

std::vector<SweepResult> run_sweep(std::vector<SweepJob> jobs,
                                   const SweepOptions& opts) {
  unsigned threads = opts.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 4;
  }
  threads = std::min<unsigned>(threads, jobs.size() == 0 ? 1
                                        : static_cast<unsigned>(jobs.size()));

  HostClock* clock = opts.clock != nullptr ? opts.clock : default_clock();

  std::vector<SweepResult> results(jobs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<std::uint64_t> cycles_done{0};
  std::atomic<bool> failed{false};
  const HostNs sweep_t0 = clock->now();

  // Each worker owns every results[i] it claims until its future is ready;
  // a failure travels back through that future.
  auto worker = [&] {
    for (;;) {
      // order: relaxed — `failed` is an advisory early-exit hint; the
      // exception and all result state cross via the worker's future.
      // order: acquire on `stop` — pairs with the release store in the
      // shutdown signal handler (store/shutdown.cc) and test setters, so a
      // worker observing the flag also observes everything written before
      // the stop was requested.
      if (failed.load(std::memory_order_relaxed) ||
          (opts.stop != nullptr &&
           opts.stop->load(std::memory_order_acquire)))
        return;
      // order: relaxed — a job-claim ticket: only the RMW's atomicity
      // matters (each index claimed once).
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        auto wl = workload::make_workload(jobs[i].workload,
                                          jobs[i].workload_scale);
        ASCOMA_CHECK_MSG(wl != nullptr,
                         "unknown workload: " << jobs[i].workload);
        results[i].job = jobs[i];
        const HostNs t0 = clock->now();
        results[i].result = simulate(jobs[i].config, *wl);
        const HostNs t1 = clock->now();
        results[i].timing.wall = t1 - t0;
        // order: relaxed — monotonic progress telemetry, read by the
        // heartbeat for display only; exact once every future is ready.
        cycles_done.fetch_add(
            results[i].result.stats.parallel_cycles.value(),
            std::memory_order_relaxed);
        done.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        // order: relaxed — advisory early-exit hint only (see the loop
        // head); correctness does not depend on when peers observe it.
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  };

  std::vector<std::future<void>> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t)
    pool.push_back(std::async(std::launch::async, worker));

  // The calling thread waits for the workers and, with progress on, beats
  // whenever a wait outlasts the interval.
  if (opts.progress && !jobs.empty()) {
    std::ostream& out =
        opts.progress_out != nullptr ? *opts.progress_out : std::cerr;
    const auto interval = std::chrono::milliseconds(
        std::max<std::uint32_t>(opts.progress_interval_ms, 1));
    std::uint64_t seq = 0;
    // order: relaxed — monotonic telemetry reads for display only; the
    // final beat runs after every future is ready, so its reads are exact.
    const auto beat = [&] {
      out << progress_line(done.load(std::memory_order_relaxed),
                           jobs.size(), clock->now() - sweep_t0,
                           Cycle{cycles_done.load(std::memory_order_relaxed)},
                           seq++)
          << std::endl;
    };
    auto deadline = std::chrono::steady_clock::now() + interval;
    for (const std::future<void>& f : pool) {
      while (f.wait_until(deadline) == std::future_status::timeout) {
        beat();
        deadline = std::chrono::steady_clock::now() + interval;
      }
    }
    // Final line so a consumer always sees done == total (or the partial
    // count when a job threw).
    beat();
  }
  // Every worker has finished before get() rethrows a failure.
  for (const std::future<void>& f : pool) f.wait();
  for (std::future<void>& f : pool) f.get();

  // Straggler pass: flag jobs whose wall time exceeded the configured
  // multiple of the sweep median — the load-imbalance signal.
  if (opts.straggler_factor > 0.0 && results.size() >= 2) {
    const HostNs median = median_wall(results);
    for (SweepResult& r : results)
      r.timing.straggler =
          static_cast<double>(r.timing.wall.value()) >
          opts.straggler_factor * static_cast<double>(median.value());
  }
  return results;
}

std::vector<SweepResult> run_sweep(std::vector<SweepJob> jobs,
                                   unsigned threads) {
  SweepOptions opts;
  opts.threads = threads;
  opts.straggler_factor = 0.0;  // legacy path: timing only, no analysis
  return run_sweep(std::move(jobs), opts);
}

std::vector<SweepJob> paper_grid(const std::string& workload,
                                 const std::vector<double>& pressures,
                                 const MachineConfig& base, double scale) {
  std::vector<SweepJob> jobs;
  auto add = [&](ArchModel arch, double pressure) {
    SweepJob j;
    j.config = base;
    j.config.arch = arch;
    j.config.memory_pressure = pressure;
    std::ostringstream label;
    label << to_string(arch) << '('
          << static_cast<int>(pressure * 100.0 + 0.5) << "%)";
    j.label = label.str();
    j.workload = workload;
    j.workload_scale = scale;
    jobs.push_back(std::move(j));
  };

  // CC-NUMA is memory-pressure independent: one run.
  add(ArchModel::kCcNuma, pressures.empty() ? 0.5 : pressures.front());
  for (ArchModel arch : {ArchModel::kScoma, ArchModel::kAsComa,
                         ArchModel::kVcNuma, ArchModel::kRNuma}) {
    for (double p : pressures) add(arch, p);
  }
  return jobs;
}

}  // namespace ascoma::core
