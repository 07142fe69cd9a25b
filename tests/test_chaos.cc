// Jitter soak: every architecture model completes a workload with seeded
// random message delay on, passes the post-run coherence invariant sweep,
// produces bit-identical statistics when re-run with the same seed and
// different ones with another jitter seed — plus a 4-thread jittered sweep
// with a live progress heartbeat (the CI TSan job runs this file).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "core/sweep.hh"
#include "obs/probe.hh"
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
  cfg.fault_jitter = 0.5;
  cfg.fault_jitter_cycles = Cycle{200};
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
    EXPECT_GT(r.faults_injected, 0u);  // the jitter actually happened
    EXPECT_LT(r.faults_injected, r.net_messages);
    EXPECT_TRUE(r.invariants_checked);
  }
}

TEST(ChaosSoak, SameSeedRunsAreBitIdentical) {
  const auto wl = chaos_workload();
  for (ArchModel arch : kAllArchs) {
    SCOPED_TRACE(to_string(arch));
    const core::RunResult a = core::simulate(chaos_config(arch), wl);
    const core::RunResult b = core::simulate(chaos_config(arch), wl);
    EXPECT_EQ(a, b);
  }
}

TEST(ChaosSoak, DifferentFaultSeedsDivergeWithoutBreaking) {
  const auto wl = chaos_workload();
  MachineConfig a_cfg = chaos_config(ArchModel::kAsComa);
  MachineConfig b_cfg = a_cfg;
  b_cfg.fault_seed = 0xBADCAFE;
  const core::RunResult a = core::simulate(a_cfg, wl);
  const core::RunResult b = core::simulate(b_cfg, wl);
  // Both complete and validate; the delays (and thus timing) differ.
  EXPECT_TRUE(a.invariants_checked);
  EXPECT_TRUE(b.invariants_checked);
  EXPECT_NE(a.cycles(), b.cycles());
}

// Setting the jitter bound and seed without a probability changes nothing.
TEST(ChaosSoak, ZeroFaultConfigMatchesAPlainRun) {
  const auto wl = chaos_workload();
  MachineConfig plain;
  plain.arch = ArchModel::kAsComa;
  plain.memory_pressure = 0.6;
  plain.seed = 2024;

  MachineConfig quiet = plain;
  quiet.fault_jitter_cycles = Cycle{1000};
  quiet.fault_seed = 0xBADCAFE;

  core::RunResult a = core::simulate(plain, wl);
  const core::RunResult b = core::simulate(quiet, wl);
  EXPECT_EQ(b.faults_injected, 0u);
  a.config = b.config;  // the only difference allowed
  EXPECT_EQ(a, b);
}

TEST(ChaosSoak, EventTraceRecordsTheChaos) {
  const auto wl = chaos_workload();
  obs::EventSink sink;
  obs::Probe probe(nullptr, &sink);
  MachineConfig cfg = chaos_config(ArchModel::kAsComa);
  cfg.probe = &probe;
  const core::RunResult r = core::simulate(cfg, wl);
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_EQ(sink.count(obs::EventKind::kFaultInjected), r.faults_injected);
}

// The whole cross-thread sweep under jitter at once: a 4-worker sweep of
// every architecture with jitter enabled, with the calling thread beating
// the progress heartbeat for the entire run.  Exercises every atomic of the
// sweep and every hand-back through a worker's future concurrently — the CI
// TSan job runs this.
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
  opts.threads = 4;  // 5 jittered jobs on 4 workers: one worker runs two
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
