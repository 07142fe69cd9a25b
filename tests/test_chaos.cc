// Chaos soak: every architecture model completes a workload under combined
// drop/duplicate/jitter fault injection with NACKing homes, stays under the
// forward-progress watchdog, passes the post-run coherence invariant sweep,
// and produces bit-identical statistics when re-run with the same seed —
// plus the served variant: a 4-thread fault-injected sweep scraped over
// real sockets while it runs (the CI TSan job runs this file).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/machine.hh"
#include "core/sweep.hh"
#include "fault/invariants.hh"
#include "fault/plan.hh"
#include "obs/sink.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ascoma {
namespace {

workload::SyntheticWorkload chaos_workload() {
  workload::SyntheticParams p;
  p.name = "chaos";
  p.nodes = 4;
  p.home_pages = 24;
  p.remote_pages = 32;
  p.iterations = 2;
  p.loads_per_page = 4;
  p.write_fraction = 0.25;
  return workload::SyntheticWorkload(p);
}

MachineConfig chaos_config(ArchModel arch) {
  MachineConfig cfg;
  cfg.arch = arch;
  cfg.memory_pressure = 0.6;
  cfg.seed = 2024;
  cfg.fault_drop = 0.01;
  cfg.fault_dup = 0.01;
  cfg.fault_jitter = 0.05;
  cfg.nack_busy_cycles = Cycle{400};
  // Generous bound: trips only on a genuine livelock, not on slow progress.
  cfg.watchdog_cycles = Cycle{20'000'000};
  cfg.check_invariants = true;  // shadow checks + post-run sweep
  return cfg;
}

constexpr ArchModel kAllArchs[] = {ArchModel::kCcNuma, ArchModel::kScoma,
                                   ArchModel::kRNuma, ArchModel::kVcNuma,
                                   ArchModel::kAsComa};

TEST(ChaosSoak, EveryArchitectureSurvivesFaultInjection) {
  const auto wl = chaos_workload();
  for (ArchModel arch : kAllArchs) {
    SCOPED_TRACE(to_string(arch));
    const core::RunResult r = core::simulate(chaos_config(arch), wl);
    EXPECT_GT(r.cycles(), Cycle{0});
    EXPECT_GT(r.faults_injected, 0u);  // the chaos actually happened
    EXPECT_TRUE(r.invariants_checked);
  }
}

TEST(ChaosSoak, SameSeedRunsAreBitIdentical) {
  const auto wl = chaos_workload();
  for (ArchModel arch : kAllArchs) {
    SCOPED_TRACE(to_string(arch));
    const core::RunResult a = core::simulate(chaos_config(arch), wl);
    const core::RunResult b = core::simulate(chaos_config(arch), wl);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.net_retries, b.net_retries);
    EXPECT_EQ(a.net_retransmits, b.net_retransmits);
    EXPECT_EQ(a.nacks, b.nacks);
    EXPECT_EQ(a.net_messages, b.net_messages);
    EXPECT_EQ(a.stats.totals.misses.total(), b.stats.totals.misses.total());
    EXPECT_EQ(a.stats.totals.time.total(), b.stats.totals.time.total());
    EXPECT_EQ(a.stats.totals.kernel.page_faults,
              b.stats.totals.kernel.page_faults);
  }
}

TEST(ChaosSoak, DifferentFaultSeedsDivergeWithoutBreaking) {
  const auto wl = chaos_workload();
  MachineConfig a_cfg = chaos_config(ArchModel::kAsComa);
  MachineConfig b_cfg = a_cfg;
  b_cfg.fault_seed = 0xBADCAFE;
  const core::RunResult a = core::simulate(a_cfg, wl);
  const core::RunResult b = core::simulate(b_cfg, wl);
  // Both complete and validate; the fault pattern (and thus timing) differs.
  EXPECT_TRUE(a.invariants_checked);
  EXPECT_TRUE(b.invariants_checked);
  EXPECT_NE(a.cycles(), b.cycles());
}

TEST(ChaosSoak, ZeroFaultConfigMatchesAPlainRun) {
  const auto wl = chaos_workload();
  MachineConfig plain;
  plain.arch = ArchModel::kAsComa;
  plain.memory_pressure = 0.6;
  plain.seed = 2024;

  MachineConfig hardened = plain;
  hardened.watchdog_cycles = Cycle{20'000'000};  // armed but never tripping
  hardened.nack_busy_cycles = Cycle{0};          // NACKs disabled

  const core::RunResult a = core::simulate(plain, wl);
  const core::RunResult b = core::simulate(hardened, wl);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.stats.totals.time.total(), b.stats.totals.time.total());
  EXPECT_EQ(b.faults_injected, 0u);
  EXPECT_EQ(b.net_retries, 0u);
  EXPECT_EQ(b.nacks, 0u);
}

// An enabled fault plan sends every message through Network::try_deliver()
// and every home request through the NACK loop.  If its only rule (a drop)
// opens after the run ends it never fires, and the run must equal one on
// the fault-free fast path in every simulated figure.
TEST(ChaosSoak, NeverFiringPlanMatchesFastPath) {
  struct Case {
    const char* workload;
    ArchModel arch;
  };
  for (const Case c : {Case{"radix", ArchModel::kCcNuma},
                       Case{"em3d", ArchModel::kAsComa}}) {
    SCOPED_TRACE(c.workload);
    const auto wl = workload::make_workload(c.workload, 0.1);
    ASSERT_NE(wl, nullptr);
    MachineConfig cfg;
    cfg.arch = c.arch;
    cfg.memory_pressure = 0.7;
    cfg.seed = 7;
    cfg.check_invariants = true;

    const core::RunResult fast = core::simulate(cfg, *wl);

    core::Machine m(cfg, *wl);
    fault::FaultPlan& plan = m.memory().fault_plan();
    plan.add_rule({fault::FaultKind::kDrop, kInvalidNode, kInvalidNode,
                   Cycle{fast.cycles().value() * 2 + 1}, kNeverCycle});
    ASSERT_TRUE(m.memory().network().faulty());
    const core::RunResult planned = m.run();
    EXPECT_GT(plan.decisions(), 0u);  // the plan path ran
    EXPECT_EQ(planned.faults_injected, 0u);

    EXPECT_EQ(planned.cycles(), fast.cycles());
    EXPECT_EQ(planned.net_messages, fast.net_messages);
    EXPECT_EQ(planned.net_retries, 0u);
    EXPECT_EQ(planned.nacks, 0u);
    EXPECT_EQ(planned.stats.totals.time.cycles, fast.stats.totals.time.cycles);
    EXPECT_EQ(planned.stats.totals.misses.count,
              fast.stats.totals.misses.count);
    EXPECT_TRUE(planned.invariants_checked);
  }
}

TEST(ChaosSoak, RetryAndNackCountersReachTheRunStats) {
  const auto wl = chaos_workload();
  MachineConfig cfg = chaos_config(ArchModel::kAsComa);
  cfg.fault_drop = 0.05;  // push hard enough that retries must occur
  const core::RunResult r = core::simulate(cfg, wl);
  EXPECT_GT(r.net_retries + r.net_retransmits, 0u);
  EXPECT_EQ(r.stats.totals.kernel.net_retries, r.net_retries);
  EXPECT_EQ(r.stats.totals.kernel.nacks, r.nacks);
}

TEST(ChaosSoak, EventTraceRecordsTheChaos) {
  const auto wl = chaos_workload();
  obs::EventSink sink;
  MachineConfig cfg = chaos_config(ArchModel::kAsComa);
  cfg.fault_drop = 0.05;
  cfg.sink = &sink;
  const core::RunResult r = core::simulate(cfg, wl);
  EXPECT_EQ(sink.count(obs::EventKind::kFaultInjected), r.faults_injected);
  EXPECT_GT(sink.count(obs::EventKind::kRetry), 0u);
}

/// Minimal HTTP GET over a real socket (response until EOF; empty on any
/// failure) — just enough to hammer the plane from the scraper thread.
std::string scrape(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    off += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// The whole cross-thread plane under chaos at once: a 4-worker sweep of
// every architecture with fault injection enabled, served on an ephemeral
// port, while a scraper thread hammers /metrics and /events for the entire
// run.  Exercises every lock in LOCK_HIERARCHY and every handshake the
// concurrency fence annotates, concurrently — the CI TSan job runs this.
TEST(ChaosSoak, ServedFaultSweepScrapesRaceFree) {
  std::vector<core::SweepJob> jobs;
  for (ArchModel arch : kAllArchs) {
    core::SweepJob j;
    j.config = chaos_config(arch);
    j.workload = "fft";
    j.workload_scale = 0.3;
    j.label = std::string("chaos-") + to_string(arch);
    jobs.push_back(j);
  }

  core::SweepOptions opts;
  opts.threads = 4;  // 5 faulty jobs on 4 workers: one worker runs two
  opts.serve_port = std::uint16_t{0};
  std::atomic<bool> done{false};
  std::thread scraper;
  std::atomic<std::size_t> scrapes{0};
  opts.serve_ready = [&](std::uint16_t port) {
    scraper = std::thread([&, port] {
      while (!done.load()) {
        if (!scrape(port, "/metrics").empty()) scrapes.fetch_add(1);
        if (!scrape(port, "/events?last=32").empty()) scrapes.fetch_add(1);
      }
    });
  };

  const std::vector<core::SweepResult> results = core::run_sweep(jobs, opts);
  done.store(true);
  ASSERT_TRUE(scraper.joinable());  // serve_ready must have fired
  scraper.join();

  EXPECT_GT(scrapes.load(), 0u);  // the plane was really being watched
  ASSERT_EQ(results.size(), jobs.size());
  for (const core::SweepResult& r : results) {
    EXPECT_GT(r.result.faults_injected, 0u) << r.job.label;
    EXPECT_TRUE(r.result.invariants_checked) << r.job.label;
    EXPECT_GT(r.accesses(), 0u) << r.job.label;
  }
}

}  // namespace
}  // namespace ascoma
