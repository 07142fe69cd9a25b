// Tests of the observability subsystem (src/obs): ring-buffer overflow and
// drop accounting, event ordering, sampler cadence, exporter golden outputs,
// and machine-level consistency between the event stream and KernelStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "core/machine.hh"
#include "obs/export.hh"
#include "obs/probe.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

namespace ascoma::obs {
namespace {

Event ev(Cycle cycle, EventKind kind, NodeId node,
         VPageId page = kInvalidPage, std::uint64_t a = 0,
         std::uint64_t b = 0, std::uint64_t c = 0) {
  return Event{cycle, kind, node, page, a, b, c};
}

// ---- ring buffer ----------------------------------------------------------

TEST(EventSink, StoresEmittedEventsInOrder) {
  EventSink sink;
  sink.emit(ev(Cycle{10}, EventKind::kPageFault, NodeId{0}, VPageId{7}));
  sink.emit(ev(Cycle{20}, EventKind::kUpgrade, NodeId{1}, VPageId{7}));
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].cycle, Cycle{10});
  EXPECT_EQ(sink.events()[0].kind, EventKind::kPageFault);
  EXPECT_EQ(sink.events()[1].cycle, Cycle{20});
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(EventSink, OverflowDropsNewestAndCountsEverything) {
  EventSink sink(4);
  for (std::uint64_t c = 0; c < 7; ++c)
    sink.emit(ev(Cycle{c}, EventKind::kDowngrade, NodeId{0}, VPageId{c}));
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 3u);
  // The oldest events are retained...
  EXPECT_EQ(sink.events().front().cycle, Cycle{0});
  EXPECT_EQ(sink.events().back().cycle, Cycle{3});
  // ...and the per-kind tally still counts the dropped ones.
  EXPECT_EQ(sink.count(EventKind::kDowngrade), 7u);
  EXPECT_EQ(sink.count(EventKind::kUpgrade), 0u);
}

TEST(EventSink, ClearResetsEverything) {
  EventSink sink(2);
  sink.emit(ev(Cycle{1}, EventKind::kPageFault, NodeId{0}));
  sink.emit(ev(Cycle{2}, EventKind::kPageFault, NodeId{0}));
  sink.emit(ev(Cycle{3}, EventKind::kPageFault, NodeId{0}));
  sink.add_sample(Sample{Cycle{100}, NodeId{0}, 1, 2, 3, 4});
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.count(EventKind::kPageFault), 0u);
  EXPECT_TRUE(sink.samples().empty());
}

TEST(EventSink, SortedEventsOrdersByCycleStably) {
  EventSink sink;
  // Nodes interleave: emission order is not globally cycle-sorted.
  sink.emit(ev(Cycle{30}, EventKind::kUpgrade, NodeId{0}, VPageId{1}));
  sink.emit(ev(Cycle{10}, EventKind::kPageFault, NodeId{1}, VPageId{2}));
  sink.emit(ev(Cycle{30}, EventKind::kDowngrade, NodeId{1}, VPageId{3}));  // tie with the upgrade
  sink.emit(ev(Cycle{20}, EventKind::kPageFault, NodeId{0}, VPageId{4}));
  const auto sorted = sink.sorted_events();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].cycle, Cycle{10});
  EXPECT_EQ(sorted[1].cycle, Cycle{20});
  // Stable: the tie at cycle 30 keeps emission order (upgrade first).
  EXPECT_EQ(sorted[2].kind, EventKind::kUpgrade);
  EXPECT_EQ(sorted[3].kind, EventKind::kDowngrade);
}

// ---- sampler --------------------------------------------------------------

TEST(Sampler, FiresAtEveryBoundary) {
  Sampler s(Cycle{100});
  EXPECT_TRUE(s.enabled());
  EXPECT_FALSE(s.due(Cycle{0}));
  EXPECT_FALSE(s.due(Cycle{99}));
  EXPECT_TRUE(s.due(Cycle{100}));
  EXPECT_EQ(s.boundary(), Cycle{100});
  s.advance(Cycle{100});
  EXPECT_FALSE(s.due(Cycle{150}));
  EXPECT_TRUE(s.due(Cycle{200}));
  EXPECT_EQ(s.boundary(), Cycle{200});
}

TEST(Sampler, LongStallYieldsOneCatchUpSample) {
  Sampler s(Cycle{100});
  ASSERT_TRUE(s.due(Cycle{1234}));
  EXPECT_EQ(s.boundary(), Cycle{100});  // stamped at the boundary that fired
  s.advance(Cycle{1234});
  EXPECT_FALSE(s.due(Cycle{1299}));      // skipped boundaries do not replay
  EXPECT_TRUE(s.due(Cycle{1300}));
}

TEST(Sampler, ZeroPeriodDisables) {
  Sampler s(Cycle{0});
  EXPECT_FALSE(s.enabled());
  EXPECT_FALSE(s.due(Cycle{1'000'000'000}));
}

// ---- exporters ------------------------------------------------------------

// A JSONL row holds the fixed fields and the kind's argument slots as keys
// of one object, so an argument named like a fixed field (or like another
// slot) would give the row a duplicate key that JSON readers resolve to the
// last value.
TEST(Export, ArgNamesAreDistinctFromEachOtherAndTheFixedFields) {
  const std::set<std::string> fixed = {"cycle", "kind", "node", "page"};
  for (int k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    std::set<std::string> seen;
    for (int i = 0; i < 3; ++i) {
      const char* name = arg_name(kind, i);
      if (!name) continue;
      EXPECT_EQ(fixed.count(name), 0u) << to_string(kind) << " arg " << i;
      EXPECT_TRUE(seen.insert(name).second) << to_string(kind) << " arg " << i;
    }
  }
}

TEST(Export, JsonlGolden) {
  EventSink sink;
  sink.emit(ev(Cycle{20}, EventKind::kThresholdRaise, NodeId{1}, kInvalidPage, 96, 1));
  sink.emit(ev(Cycle{10}, EventKind::kPageFault, NodeId{0}, VPageId{42}));
  sink.emit(ev(Cycle{15}, EventKind::kDaemonRun, NodeId{2}, kInvalidPage, 8, 3, 1));
  std::ostringstream os;
  write_jsonl(os, sink);
  EXPECT_EQ(os.str(),
            "{\"cycle\":10,\"kind\":\"page_fault\",\"node\":0,\"page\":42}\n"
            "{\"cycle\":15,\"kind\":\"daemon_run\",\"node\":2,\"scanned\":8,"
            "\"reclaimed\":3,\"met_target\":1}\n"
            "{\"cycle\":20,\"kind\":\"threshold_raise\",\"node\":1,"
            "\"threshold\":96,\"relocation_enabled\":1}\n");
}

TEST(Export, MetricsCsvGolden) {
  EventSink sink;
  sink.add_sample(Sample{Cycle{1000}, NodeId{0}, 12, 64, 30, 111});
  sink.add_sample(Sample{Cycle{1000}, NodeId{1}, 7, 96, 35, 222});
  std::ostringstream os;
  write_metrics_csv(os, sink);
  EXPECT_EQ(os.str(),
            "cycle,node,free_frames,threshold,page_cache_active,"
            "remote_misses\n"
            "1000,0,12,64,30,111\n"
            "1000,1,7,96,35,222\n");
}

TEST(Export, PerfettoGolden) {
  EventSink sink;
  sink.emit(ev(Cycle{10}, EventKind::kUpgrade, NodeId{0}, VPageId{5}));
  sink.add_sample(Sample{Cycle{1000}, NodeId{0}, 12, 64, 30, 111});
  std::ostringstream os;
  write_perfetto(os, sink, 1);
  EXPECT_EQ(
      os.str(),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"node 0\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"events\"}},\n"
      "{\"name\":\"upgrade\",\"ph\":\"i\",\"s\":\"t\",\"ts\":10,\"pid\":0,"
      "\"tid\":0,\"args\":{\"page\":5}},\n"
      "{\"name\":\"free_frames\",\"ph\":\"C\",\"ts\":1000,\"pid\":0,"
      "\"args\":{\"free_frames\":12}},\n"
      "{\"name\":\"threshold\",\"ph\":\"C\",\"ts\":1000,\"pid\":0,"
      "\"args\":{\"threshold\":64}},\n"
      "{\"name\":\"page_cache_active\",\"ph\":\"C\",\"ts\":1000,\"pid\":0,"
      "\"args\":{\"page_cache_active\":30}},\n"
      "{\"name\":\"remote_misses\",\"ph\":\"C\",\"ts\":1000,\"pid\":0,"
      "\"args\":{\"remote_misses\":111}}\n"
      "]}\n");
}

TEST(Export, PerfettoIsBalancedJsonOnRealisticInput) {
  // Structural sanity on a bigger, mixed trace: every brace/bracket closes.
  EventSink sink;
  for (std::uint64_t c = 0; c < 100; ++c) {
    const NodeId node{static_cast<std::uint32_t>(c % 4)};
    sink.emit(ev(Cycle{c * 7},
                 static_cast<EventKind>(c % static_cast<std::uint64_t>(kNumEventKinds)),
                 node, c % 3 ? VPageId{c} : kInvalidPage, c, c, c));
    if (c % 10 == 0) sink.add_sample(Sample{Cycle{c * 7}, node, c, c, c, c});
  }
  std::ostringstream os;
  write_perfetto(os, sink, 4);
  const std::string s = os.str();
  long depth_brace = 0, depth_bracket = 0;
  bool in_string = false;
  for (char ch : s) {
    if (ch == '"') in_string = !in_string;
    if (in_string) continue;
    depth_brace += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    depth_bracket += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    ASSERT_GE(depth_brace, 0);
    ASSERT_GE(depth_bracket, 0);
  }
  EXPECT_EQ(depth_brace, 0);
  EXPECT_EQ(depth_bracket, 0);
  EXPECT_FALSE(in_string);
}

// ---- machine-level integration -------------------------------------------

workload::SyntheticWorkload pressured_wl() {
  workload::SyntheticParams p;
  p.nodes = 4;
  p.home_pages = 32;
  p.remote_pages = 24;
  p.iterations = 6;
  p.sweeps_per_iteration = 3;
  p.loads_per_page = 32;
  p.write_fraction = 0.05;
  return workload::SyntheticWorkload(p);
}

MachineConfig pressured_cfg(Probe* probe, Cycle sample_every = Cycle{0}) {
  MachineConfig c;
  c.arch = ArchModel::kAsComa;
  c.memory_pressure = 0.90;
  c.probe = probe;
  c.sample_every = sample_every;
  return c;
}

TEST(MachineObs, EventStreamMatchesKernelStats) {
  const auto w = pressured_wl();
  EventSink sink;
  Probe probe(nullptr, &sink);
  const auto r = core::simulate(pressured_cfg(&probe), w);
  const auto& k = r.stats.totals.kernel;

  // The paper's back-off narrative: at 90% pressure AS-COMA must raise its
  // threshold, and every raise appears in the event stream.
  EXPECT_GT(k.threshold_raises, 0u);
  EXPECT_EQ(sink.count(EventKind::kThresholdRaise), k.threshold_raises);
  EXPECT_EQ(sink.count(EventKind::kThresholdDrop), k.threshold_drops);
  EXPECT_EQ(sink.count(EventKind::kPageFault), k.page_faults);
  EXPECT_EQ(sink.count(EventKind::kScomaAlloc), k.scoma_allocs);
  EXPECT_EQ(sink.count(EventKind::kNumaAlloc), k.numa_allocs);
  EXPECT_EQ(sink.count(EventKind::kUpgrade), k.upgrades);
  EXPECT_EQ(sink.count(EventKind::kDowngrade), k.downgrades);
  EXPECT_EQ(sink.count(EventKind::kRelocInterrupt), k.relocation_interrupts);
  EXPECT_EQ(sink.count(EventKind::kRemapSuppressed), k.remap_suppressed);
  EXPECT_EQ(sink.count(EventKind::kDaemonRun), k.daemon_runs);
  EXPECT_EQ(sink.count(EventKind::kBarrierRelease), r.barrier_episodes);
}

TEST(MachineObs, AttachingASinkDoesNotChangeTheRun) {
  const auto w = pressured_wl();
  EventSink sink;
  Probe probe(nullptr, &sink);
  const auto observed = core::simulate(pressured_cfg(&probe, Cycle{10'000}), w);
  const auto bare = core::simulate(pressured_cfg(nullptr), w);
  EXPECT_EQ(observed.cycles(), bare.cycles());
  EXPECT_EQ(observed.stats.totals.misses.total(),
            bare.stats.totals.misses.total());
  EXPECT_EQ(observed.final_threshold, bare.final_threshold);
}

TEST(MachineObs, FinalSampleMatchesRunResult) {
  const auto w = pressured_wl();
  EventSink sink;
  Probe probe(nullptr, &sink);
  const auto r = core::simulate(pressured_cfg(&probe, Cycle{10'000}), w);
  ASSERT_FALSE(sink.samples().empty());

  // The last nodes() samples are the end-of-run snapshot.
  const auto& samples = sink.samples();
  ASSERT_GE(samples.size(), static_cast<std::size_t>(r.stats.nodes));
  for (std::uint32_t n = 0; n < r.stats.nodes; ++n) {
    const Sample& s = samples[samples.size() - r.stats.nodes + n];
    EXPECT_EQ(s.cycle, r.cycles());
    EXPECT_EQ(s.node, NodeId{n});
    EXPECT_EQ(s.threshold, r.final_threshold[n]);
  }

  // Samples cover the run at the requested cadence and are time-ordered.
  EXPECT_GT(samples.size(), static_cast<std::size_t>(r.stats.nodes));
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_LE(samples[i - 1].cycle, samples[i].cycle);
}

TEST(MachineObs, ThresholdRaisesAreADaemonPeriodApart) {
  // AS-COMA backs off only on a failed pageout-daemon run, and the machine
  // gates a node's next daemon run one daemon period, as stretched by that
  // back-off, after the last: the gate is the back-off's only rate limit.
  const auto w = workload::make_workload("barnes", 1.0);
  EventSink sink;
  Probe probe(nullptr, &sink);
  MachineConfig c;
  c.arch = ArchModel::kAsComa;
  c.memory_pressure = 0.70;
  c.probe = &probe;
  const auto r = core::simulate(c, *w);
  ASSERT_EQ(sink.dropped(), 0u);
  // Without relaxations a node's period only grows, one factor per raise.
  ASSERT_EQ(r.stats.totals.kernel.threshold_drops, 0u);

  std::vector<std::vector<Cycle>> raises(r.stats.nodes);
  for (const Event& e : sink.sorted_events())
    if (e.kind == EventKind::kThresholdRaise)
      raises[e.node.value()].push_back(e.cycle);
  std::size_t gaps = 0;
  for (const std::vector<Cycle>& at : raises) {
    Cycle period = c.daemon_period;
    for (std::size_t i = 1; i < at.size(); ++i, ++gaps) {
      period = std::min(c.daemon_period_max,
                        Cycle{static_cast<Cycle::rep>(
                            static_cast<double>(period.value()) *
                            c.daemon_backoff_factor)});
      EXPECT_GE(at[i] - at[i - 1], period) << "raise " << i;
    }
  }
  EXPECT_GT(gaps, 0u);  // nodes back off more than once at this length
}

}  // namespace
}  // namespace ascoma::obs
