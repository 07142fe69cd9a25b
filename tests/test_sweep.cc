#include "core/sweep.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hh"
#include "core/host.hh"
#include "obs/probe.hh"
#include "store/shutdown.hh"

namespace ascoma::core {
namespace {

TEST(Sweep, ParallelMatchesSerial) {
  std::vector<SweepJob> jobs;
  for (double p : {0.1, 0.7}) {
    SweepJob j;
    j.config.arch = ArchModel::kAsComa;
    j.config.memory_pressure = p;
    j.workload = "ocean";
    j.workload_scale = 0.2;
    j.label = "ascoma";
    jobs.push_back(j);
  }
  const auto serial = run_sweep(jobs, 1);
  const auto parallel = run_sweep(jobs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.cycles(), parallel[i].result.cycles());
    EXPECT_EQ(serial[i].result.stats.totals.misses.total(),
              parallel[i].result.stats.totals.misses.total());
  }
}

TEST(Sweep, ResultsInJobOrder) {
  std::vector<SweepJob> jobs;
  for (ArchModel a : {ArchModel::kCcNuma, ArchModel::kScoma}) {
    SweepJob j;
    j.config.arch = a;
    j.config.memory_pressure = 0.2;
    j.workload = "fft";
    j.workload_scale = 0.5;
    j.label = to_string(a);
    jobs.push_back(j);
  }
  const auto res = run_sweep(jobs, 2);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].job.label, "CCNUMA");
  EXPECT_EQ(res[1].job.label, "SCOMA");
}

TEST(Sweep, UnknownWorkloadThrows) {
  SweepJob j;
  j.workload = "no-such-program";
  EXPECT_THROW(run_sweep({j}, 2), std::exception);
}

TEST(Sweep, EmptyJobListIsFine) {
  EXPECT_TRUE(run_sweep({}, 4).empty());
}

TEST(PaperGrid, CcNumaOnceOthersPerPressure) {
  const auto jobs = paper_grid("em3d", {0.1, 0.5, 0.9});
  // 1 CC-NUMA + 4 architectures x 3 pressures.
  EXPECT_EQ(jobs.size(), 1u + 4 * 3);
  EXPECT_EQ(jobs[0].config.arch, ArchModel::kCcNuma);
  int ascoma = 0;
  for (const auto& j : jobs) {
    EXPECT_EQ(j.workload, "em3d");
    if (j.config.arch == ArchModel::kAsComa) ++ascoma;
  }
  EXPECT_EQ(ascoma, 3);
}

TEST(PaperGrid, LabelsEncodeArchAndPressure) {
  const auto jobs = paper_grid("lu", {0.7});
  bool found = false;
  for (const auto& j : jobs)
    if (j.label == "ASCOMA(70%)") found = true;
  EXPECT_TRUE(found);
}

// ---- host telemetry --------------------------------------------------------

/// Scripted clock: now() replays a fixed value sequence (sticky on the last
/// entry), making multi-call consumers like run_sweep deterministic.
class ScriptedClock final : public HostClock {
 public:
  explicit ScriptedClock(std::vector<std::uint64_t> values)
      : values_(std::move(values)) {}
  HostNs now() override {
    const std::size_t i = pos_ < values_.size() ? pos_++ : values_.size() - 1;
    return HostNs{values_[i]};
  }

 private:
  std::vector<std::uint64_t> values_;
  std::size_t pos_ = 0;
};

TEST(SelfProfHost, AllocCounter) {
  if (!alloc_hook_active()) GTEST_SKIP() << "alloc hook compiled out";
  // A plain new-expression here could legally be elided at -O2; the direct
  // operator-new call cannot, so it reliably reaches the counting hook.
  const std::uint64_t before = thread_alloc_count();
  void* p = ::operator new(64);
  const std::uint64_t after = thread_alloc_count();
  ::operator delete(p);
  EXPECT_GT(after, before);
}

std::vector<SweepJob> tiny_jobs(std::size_t n) {
  std::vector<SweepJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    SweepJob j;
    j.config.arch = ArchModel::kAsComa;
    j.config.memory_pressure = 0.5;
    j.workload = "fft";
    j.workload_scale = 0.2;
    j.label = "job" + std::to_string(i);
    jobs.push_back(j);
  }
  return jobs;
}

TEST(Sweep, StopFlagDrainsInsteadOfStarting) {
  SweepOptions opts;
  opts.threads = 1;
  std::atomic<bool> stop{true};
  opts.stop = &stop;
  // Stop raised before the sweep: no job is claimed, results stay empty.
  const auto res = run_sweep(tiny_jobs(2), opts);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].result.stats.parallel_cycles, Cycle{0});
  EXPECT_EQ(res[1].result.stats.parallel_cycles, Cycle{0});
}

TEST(Sweep, StopFromAnotherThreadLeavesNoPartialResult) {
  // The CLI's wiring: workers poll the process shutdown flag while another
  // thread (the signal handler in production) raises it mid-sweep.  Under
  // TSan this covers the stop handshake: the setter's release store against
  // the workers' acquire loads, next to their job claims and result writes.
  const Cycle full = run_sweep(tiny_jobs(1), 1)[0].result.cycles();
  ASSERT_GT(full, Cycle{0});
  store::set_shutdown_requested(0);
  SweepOptions opts;
  opts.threads = 4;
  opts.stop = store::shutdown_flag();
  const std::vector<SweepJob> jobs = tiny_jobs(12);
  std::thread stopper([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    store::set_shutdown_requested(SIGINT);
  });
  const auto res = run_sweep(jobs, opts);
  stopper.join();
  EXPECT_TRUE(store::shutdown_requested());
  store::set_shutdown_requested(0);
  ASSERT_EQ(res.size(), jobs.size());
  for (std::size_t i = 0; i < res.size(); ++i) {
    if (res[i].job.label.empty()) {  // never claimed: untouched
      EXPECT_EQ(res[i].result.cycles(), Cycle{0}) << i;
      EXPECT_EQ(res[i].timing.wall.value(), 0u) << i;
    } else {  // claimed: simulated to the end, like a solo run
      EXPECT_EQ(res[i].job.label, jobs[i].label);
      EXPECT_EQ(res[i].result.cycles(), full) << i;
      EXPECT_GT(res[i].timing.wall.value(), 0u) << i;
    }
  }
}

TEST(SweepTelemetry, RecordsWallTime) {
  const auto res = run_sweep(tiny_jobs(2), 1);
  ASSERT_EQ(res.size(), 2u);
  for (const SweepResult& r : res) {
    EXPECT_GT(r.timing.wall.value(), 0u);
    EXPECT_FALSE(r.timing.straggler);  // legacy overload disables the check
    EXPECT_GT(r.accesses(), 0u);
    EXPECT_GT(r.sim_rate_hz(), 0.0);
  }
}

TEST(SweepTelemetry, StragglerFlaggedAgainstMedian) {
  // Scripted clock: with one worker and no progress thread the sweep reads
  // the clock exactly once up front and twice per job, so the job walls are
  // 10, 10 and 80 ns -> job 2 exceeds 3x the 10 ns median.
  ScriptedClock clk({0, 0, 10, 10, 20, 20, 100});
  SweepOptions opts;
  opts.threads = 1;
  opts.clock = &clk;
  const auto res = run_sweep(tiny_jobs(3), opts);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].timing.wall, HostNs{10});
  EXPECT_EQ(res[1].timing.wall, HostNs{10});
  EXPECT_EQ(res[2].timing.wall, HostNs{80});
  EXPECT_FALSE(res[0].timing.straggler);
  EXPECT_FALSE(res[1].timing.straggler);
  EXPECT_TRUE(res[2].timing.straggler);
}

TEST(SweepTelemetry, ProgressLineFormat) {
  const std::string line =
      progress_line(3, 10, HostNs{2'000'000'000}, Cycle{500});
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"sweep\":\"progress\""), std::string::npos);
  // `seq` follows the line tag so pollers can spot a re-read (default 0).
  EXPECT_NE(line.find("\"sweep\":\"progress\",\"seq\":0,"), std::string::npos);
  EXPECT_NE(line.find("\"done\":3"), std::string::npos);
  EXPECT_NE(line.find("\"total\":10,\"wall_ms\":2000,"), std::string::npos);
  EXPECT_NE(line.find("\"sim_cycles\":500"), std::string::npos);
  EXPECT_NE(line.find("\"sim_rate_hz\":250"), std::string::npos);
  // Mean-job ETA: 2 s / 3 done * 7 remaining = 4666 ms.
  EXPECT_NE(line.find("\"eta_ms\":4666"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const std::string seq_line =
      progress_line(3, 10, HostNs{2'000'000'000}, Cycle{500}, 41);
  EXPECT_NE(seq_line.find("\"seq\":41"), std::string::npos);
}

TEST(SweepTelemetry, ProgressHeartbeatAlwaysEndsComplete) {
  std::ostringstream out;
  SweepOptions opts;
  opts.threads = 2;
  opts.progress = true;
  opts.progress_interval_ms = 1;
  opts.progress_out = &out;
  const auto res = run_sweep(tiny_jobs(2), opts);
  ASSERT_EQ(res.size(), 2u);
  const std::string text = out.str();
  ASSERT_NE(text, "");
  // The final heartbeat (emitted once every worker is done) reports completion.
  const std::size_t last = text.rfind("{\"sweep\"");
  ASSERT_NE(last, std::string::npos);
  EXPECT_NE(text.find("\"done\":2,\"total\":2", last), std::string::npos);
}

TEST(SweepTelemetry, FailedSweepBeatsItsPartialCountBeforeThrowing) {
  // Job 1 names no workload.  Whichever worker claimed job 0 still runs it
  // to the end, so the sweep's last line reports it done, and only then
  // does the failure reach the caller.
  std::vector<SweepJob> jobs = tiny_jobs(2);
  jobs[1].workload = "no-such-program";
  std::ostringstream out;
  SweepOptions opts;
  opts.threads = 2;
  opts.progress = true;
  opts.progress_interval_ms = 1;
  opts.progress_out = &out;
  EXPECT_THROW(run_sweep(jobs, opts), CheckFailure);
  const std::string text = out.str();
  const std::size_t last = text.rfind("{\"sweep\"");
  ASSERT_NE(last, std::string::npos);
  EXPECT_NE(text.find("\"done\":1,\"total\":2", last), std::string::npos);
}

}  // namespace
}  // namespace ascoma::core
