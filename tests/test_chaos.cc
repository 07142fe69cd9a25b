// Chaos soak: every architecture model completes a workload under combined
// drop/duplicate/jitter fault injection with NACKing homes, stays under the
// forward-progress watchdog, passes the post-run coherence invariant sweep,
// and produces bit-identical statistics when re-run with the same seed —
// plus a 4-thread fault-injected sweep with a live progress heartbeat (the
// CI TSan job runs this file).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
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

// The whole cross-thread sweep under chaos at once: a 4-worker sweep of
// every architecture with fault injection enabled, with the progress
// heartbeat beating on its own thread for the entire run.  Exercises every
// lock and every release/acquire handshake of the sweep concurrently — the
// CI TSan job runs this.
TEST(ChaosSoak, ThreadedFaultSweepRaceFree) {
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
  std::ostringstream beats;
  opts.progress = true;
  opts.progress_interval_ms = 1;
  opts.progress_out = &beats;

  const std::vector<core::SweepResult> results = core::run_sweep(jobs, opts);

  // The final heartbeat line always reports the whole sweep done.
  EXPECT_NE(beats.str().find("\"done\":5,\"total\":5"), std::string::npos);
  ASSERT_EQ(results.size(), jobs.size());
  for (const core::SweepResult& r : results) {
    EXPECT_GT(r.result.faults_injected, 0u) << r.job.label;
    EXPECT_TRUE(r.result.invariants_checked) << r.job.label;
    EXPECT_GT(r.accesses(), 0u) << r.job.label;
  }
}

}  // namespace
}  // namespace ascoma
