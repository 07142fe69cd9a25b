// Fault-injection framework: plan determinism, network drop/dup/jitter
// semantics, protocol NACK/retry paths, the forward-progress watchdog, the
// post-run invariant sweep, and the crash-path exporter flush.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/config.hh"
#include "fault/invariants.hh"
#include "fault/plan.hh"
#include "fault/watchdog.hh"
#include "net/network.hh"
#include "obs/probe.hh"
#include "proto/coherent_memory.hh"
#include "vm/home_map.hh"
#include "vm/page_table.hh"

namespace ascoma {
namespace {

// ---- seed threading --------------------------------------------------------

TEST(ComponentSeed, WorkloadStreamIsTheRawSeed) {
  MachineConfig cfg;
  cfg.seed = 12345;
  EXPECT_EQ(cfg.component_seed(MachineConfig::kSeedStreamWorkload), 12345u);
}

TEST(ComponentSeed, FaultStreamDiffersFromWorkloadStream) {
  MachineConfig cfg;
  cfg.seed = 12345;
  EXPECT_NE(cfg.component_seed(MachineConfig::kSeedStreamFault), cfg.seed);
  EXPECT_EQ(cfg.effective_fault_seed(),
            cfg.component_seed(MachineConfig::kSeedStreamFault));
}

TEST(ComponentSeed, ExplicitFaultSeedOverridesDerivation) {
  MachineConfig cfg;
  cfg.seed = 12345;
  cfg.fault_seed = 777;
  EXPECT_EQ(cfg.effective_fault_seed(), 777u);
}

TEST(ComponentSeed, DistinctTopLevelSeedsGiveDistinctFaultStreams) {
  MachineConfig a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(a.effective_fault_seed(), b.effective_fault_seed());
}

// ---- FaultPlan -------------------------------------------------------------

TEST(FaultPlan, DefaultConstructedIsDisabled) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  const auto d = plan.decide(Cycle{0}, NodeId{0}, NodeId{1});
  EXPECT_FALSE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_EQ(d.jitter, Cycle{0});
}

TEST(FaultPlan, ZeroConfigIsDisabled) {
  MachineConfig cfg;
  fault::FaultPlan plan(cfg);
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlan, EnabledFollowsProbabilitiesAndRules) {
  EXPECT_FALSE(fault::FaultPlan().enabled());
  EXPECT_FALSE(fault::FaultPlan(MachineConfig{}).enabled());
  for (double MachineConfig::*knob :
       {&MachineConfig::fault_drop, &MachineConfig::fault_dup,
        &MachineConfig::fault_jitter}) {
    MachineConfig cfg;
    cfg.fault_jitter_cycles = Cycles{4};
    cfg.*knob = 0.1;
    EXPECT_TRUE(fault::FaultPlan(cfg).enabled());
  }
  fault::FaultPlan plan{MachineConfig{}};
  plan.add_rule({fault::FaultKind::kJitter, NodeId{0}, NodeId{1}, Cycle{0},
                 Cycle{10}});
  EXPECT_TRUE(plan.enabled());
  plan.reset();  // keeps the rules, so the plan stays on
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, SameSeedReplaysTheSameDecisions) {
  MachineConfig cfg;
  cfg.fault_drop = 0.3;
  cfg.fault_jitter = 0.3;
  cfg.fault_seed = 42;
  fault::FaultPlan a(cfg), b(cfg);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto da = a.decide(Cycle{i}, NodeId{0}, NodeId{1});
    const auto db = b.decide(Cycle{i}, NodeId{0}, NodeId{1});
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.jitter, db.jitter);
  }
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_GT(a.drops(), 0u);
}

TEST(FaultPlan, ResetRewindsTheRngAndCounters) {
  MachineConfig cfg;
  cfg.fault_drop = 0.5;
  cfg.fault_seed = 7;
  fault::FaultPlan plan(cfg);
  std::vector<bool> first;
  for (std::uint64_t i = 0; i < 100; ++i)
    first.push_back(plan.decide(Cycle{i}, NodeId{0}, NodeId{1}).drop);
  plan.reset();
  EXPECT_EQ(plan.drops(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i)
    EXPECT_EQ(plan.decide(Cycle{i}, NodeId{0}, NodeId{1}).drop, first[i]);
}

TEST(FaultPlan, TargetRuleFiresOnlyInsideItsWindow) {
  MachineConfig cfg;
  fault::FaultPlan plan(cfg);
  plan.add_rule({fault::FaultKind::kDrop, NodeId{2}, NodeId{3}, Cycle{100}, Cycle{200}});
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(plan.decide(Cycle{99}, NodeId{2}, NodeId{3}).drop);   // before the window
  EXPECT_TRUE(plan.decide(Cycle{150}, NodeId{2}, NodeId{3}).drop);   // inside
  EXPECT_FALSE(plan.decide(Cycle{150}, NodeId{1}, NodeId{3}).drop);  // wrong source
  EXPECT_FALSE(plan.decide(Cycle{200}, NodeId{2}, NodeId{3}).drop);  // end is exclusive
}

TEST(FaultPlan, WildcardRuleMatchesAnyEndpoints) {
  MachineConfig cfg;
  fault::FaultPlan plan(cfg);
  plan.add_rule({fault::FaultKind::kDuplicate, kInvalidNode, kInvalidNode, Cycle{0}, kNeverCycle});
  EXPECT_TRUE(plan.decide(Cycle{5}, NodeId{3}, NodeId{1}).duplicate);
  EXPECT_TRUE(plan.decide(Cycle{999}, NodeId{0}, NodeId{7}).duplicate);
}

TEST(FaultPlan, NackRuleTargetsTheHome) {
  MachineConfig cfg;
  fault::FaultPlan plan(cfg);
  plan.add_rule({fault::FaultKind::kNack, kInvalidNode, NodeId{2}, Cycle{0}, Cycle{1000}});
  EXPECT_TRUE(plan.nack_forced(Cycle{10}, NodeId{2}));
  EXPECT_FALSE(plan.nack_forced(Cycle{10}, NodeId{1}));
  EXPECT_FALSE(plan.nack_forced(Cycle{1000}, NodeId{2}));
}

TEST(FaultPlan, DropSuppressesDuplicateAndJitter) {
  MachineConfig cfg;
  fault::FaultPlan plan(cfg);
  plan.add_rule({fault::FaultKind::kDrop, NodeId{0}, NodeId{1}, Cycle{0}, kNeverCycle});
  plan.add_rule({fault::FaultKind::kDuplicate, NodeId{0}, NodeId{1}, Cycle{0}, kNeverCycle});
  plan.add_rule({fault::FaultKind::kJitter, NodeId{0}, NodeId{1}, Cycle{0}, kNeverCycle});
  const auto d = plan.decide(Cycle{0}, NodeId{0}, NodeId{1});
  EXPECT_TRUE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_EQ(d.jitter, Cycle{0});
  EXPECT_EQ(plan.duplicates(), 0u);
}

// ---- Network under faults --------------------------------------------------

class FaultyNetworkTest : public ::testing::Test {
 protected:
  FaultyNetworkTest() : cfg_([] {
    MachineConfig c;
    c.nodes = 4;
    return c;
  }()), net_(cfg_), plan_(cfg_) {}

  MachineConfig cfg_;
  net::Network net_;
  fault::FaultPlan plan_;
};

TEST_F(FaultyNetworkTest, DisabledPlanKeepsDeliveryBitIdentical) {
  net::Network bare(cfg_);
  const Cycle without = bare.deliver(Cycle{0}, NodeId{0}, NodeId{1});
  net_.set_fault_plan(&plan_);  // attached but disabled
  EXPECT_FALSE(net_.faulty());
  EXPECT_EQ(net_.deliver(Cycle{0}, NodeId{0}, NodeId{1}), without);
}

// An enabled plan whose only rule opens after the traffic never fires, so
// every message takes try_deliver()'s plan path and must land exactly where
// deliver()'s fault-free fast path puts it, with the same port bookkeeping.
TEST_F(FaultyNetworkTest, FastPathMatchesAttemptPath) {
  plan_.add_rule({fault::FaultKind::kDrop, kInvalidNode, kInvalidNode,
                  Cycle{1'000'000}, kNeverCycle});
  net_.set_fault_plan(&plan_);
  ASSERT_TRUE(net_.faulty());
  net::Network fast(cfg_);
  ASSERT_FALSE(fast.faulty());

  struct Msg {
    Cycle now;
    NodeId src, dst;
  };
  // Three senders into port 1 at once, a loopback, traffic to other ports,
  // and a late message that finds port 1 free again.
  const Msg seq[] = {
      {Cycle{0}, NodeId{0}, NodeId{1}},   {Cycle{0}, NodeId{2}, NodeId{1}},
      {Cycle{3}, NodeId{3}, NodeId{1}},   {Cycle{3}, NodeId{2}, NodeId{2}},
      {Cycle{5}, NodeId{1}, NodeId{0}},   {Cycle{5}, NodeId{3}, NodeId{0}},
      {Cycle{9}, NodeId{0}, NodeId{3}},   {Cycle{400}, NodeId{2}, NodeId{1}},
  };
  std::uint64_t fabric_messages = 0;
  for (const Msg& m : seq) {
    const Cycle via_fast = fast.deliver(m.now, m.src, m.dst);
    const net::Network::Attempt a = net_.try_deliver(m.now, m.src, m.dst);
    EXPECT_FALSE(a.dropped);
    EXPECT_EQ(a.arrival, via_fast) << m.src << " -> " << m.dst << " at " << m.now;
    if (m.src != m.dst) ++fabric_messages;
  }
  EXPECT_EQ(plan_.decisions(), fabric_messages);  // the plan path ran
  EXPECT_EQ(plan_.injected(), 0u);
  EXPECT_EQ(net_.messages(), fast.messages());
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n)
    EXPECT_EQ(net_.input_port(n).free_at(), fast.input_port(n).free_at());
  // Port 1's last reservation is the late message, which found it free.
  EXPECT_EQ(fast.input_port(NodeId{1}).free_at(),
            Cycle{400} + fast.min_one_way_latency() - cfg_.net_interface_cycles);
}

TEST_F(FaultyNetworkTest, DroppedMessageIsReportedToTheCaller) {
  plan_.add_rule({fault::FaultKind::kDrop, NodeId{0}, NodeId{1}, Cycle{0}, Cycle{50}});
  net_.set_fault_plan(&plan_);
  const auto a = net_.try_deliver(Cycle{0}, NodeId{0}, NodeId{1});
  EXPECT_TRUE(a.dropped);
  EXPECT_EQ(plan_.drops(), 1u);
  // The drop never reached the destination port.
  EXPECT_EQ(net_.input_port(NodeId{1}).free_at(), Cycle{0});
}

TEST_F(FaultyNetworkTest, DeliverRetransmitsPastTheDropWindow) {
  plan_.add_rule({fault::FaultKind::kDrop, NodeId{0}, NodeId{1}, Cycle{0}, Cycle{200}});
  net_.set_fault_plan(&plan_);
  const Cycle arrival = net_.deliver(Cycle{0}, NodeId{0}, NodeId{1});
  EXPECT_GT(net_.retransmits(), 0u);
  // The first send at or after cycle 200 goes through.
  net::Network clean(cfg_);
  EXPECT_GE(arrival, clean.deliver(Cycle{200}, NodeId{0}, NodeId{1}));
}

TEST_F(FaultyNetworkTest, DeliverThrowsWhenTheRetryBudgetIsExhausted) {
  cfg_.retry_max_attempts = 4;
  net::Network limited(cfg_);
  plan_.add_rule({fault::FaultKind::kDrop, NodeId{0}, NodeId{1}, Cycle{0}, kNeverCycle});
  limited.set_fault_plan(&plan_);
  EXPECT_THROW(limited.deliver(Cycle{0}, NodeId{0}, NodeId{1}), CheckFailure);
}

TEST_F(FaultyNetworkTest, DuplicateOccupiesTheDestinationPortTwice) {
  plan_.add_rule({fault::FaultKind::kDuplicate, NodeId{0}, NodeId{1}, Cycle{0}, Cycle{50}});
  net_.set_fault_plan(&plan_);
  const auto a = net_.try_deliver(Cycle{0}, NodeId{0}, NodeId{1});
  EXPECT_FALSE(a.dropped);
  // Two back-to-back reservations from the cycle the message reaches port 1.
  EXPECT_EQ(net_.input_port(NodeId{1}).free_at(),
            a.arrival - cfg_.net_interface_cycles);
  EXPECT_EQ(a.arrival, Cycle{0} + net_.min_one_way_latency() +
                           cfg_.net_port_occupancy);
  // The real copy is serialized behind the spurious one.
  net::Network clean(cfg_);
  EXPECT_GT(a.arrival, clean.try_deliver(Cycle{0}, NodeId{0}, NodeId{1}).arrival);
}

TEST_F(FaultyNetworkTest, JitterDelaysArrival) {
  plan_.add_rule({fault::FaultKind::kJitter, NodeId{0}, NodeId{1}, Cycle{0}, Cycle{50}});
  net_.set_fault_plan(&plan_);
  net::Network clean(cfg_);
  const Cycle base = clean.try_deliver(Cycle{0}, NodeId{0}, NodeId{1}).arrival;
  const auto a = net_.try_deliver(Cycle{0}, NodeId{0}, NodeId{1});
  EXPECT_EQ(a.arrival, base + cfg_.fault_jitter_cycles);
  EXPECT_EQ(plan_.jitters(), 1u);
}

TEST_F(FaultyNetworkTest, FaultEventsAreEmitted) {
  obs::EventSink sink;
  obs::Probe probe(nullptr, &sink);
  plan_.add_rule({fault::FaultKind::kDrop, NodeId{0}, NodeId{1}, Cycle{0}, Cycle{50}});
  net_.set_fault_plan(&plan_);
  net_.set_probe(&probe);
  net_.try_deliver(Cycle{0}, NodeId{0}, NodeId{1});
  EXPECT_EQ(sink.count(obs::EventKind::kFaultInjected), 1u);
}

// ---- CoherentMemory retry / NACK / watchdog -------------------------------

// 4 nodes, 4 home pages each; node 0 accesses page 4 (homed at node 1).
class FaultedMemoryTest : public ::testing::Test {
 protected:
  explicit FaultedMemoryTest() : homes_(16, 4) { homes_.assign_contiguous(); }

  void build() {
    cfg_.nodes = 4;
    for (NodeId n{0}; n.value() < 4; ++n) {
      pts_.push_back(std::make_unique<vm::PageTable>(16));
      for (VPageId p{n.value() * 4ull}; p < VPageId{(n.value() + 1) * 4ull}; ++p)
        pts_[n.value()]->map_home(p);
    }
    pts_[0]->map_numa(VPageId{4});  // remote page homed at node 1
    cm_ = std::make_unique<proto::CoherentMemory>(cfg_, homes_);
    std::vector<const vm::PageTable*> ptrs;
    for (auto& pt : pts_) ptrs.push_back(pt.get());
    cm_->set_page_tables(ptrs);
  }

  Addr addr(VPageId page, std::uint64_t line_in_page = 0) const {
    return Addr{page.value() * cfg_.page_bytes.value() +
                line_in_page * cfg_.line_bytes.value()};
  }

  MachineConfig cfg_;
  vm::HomeMap homes_;
  std::vector<std::unique_ptr<vm::PageTable>> pts_;
  std::unique_ptr<proto::CoherentMemory> cm_;
};

TEST_F(FaultedMemoryTest, RequestRetriesThroughADropWindow) {
  build();
  cm_->fault_plan().add_rule({fault::FaultKind::kDrop, NodeId{0}, NodeId{1}, Cycle{0}, Cycle{400}});
  const auto o = cm_->access(0, addr(VPageId{4}), false, Cycle{0});
  EXPECT_GT(o.retries, 0u);
  EXPECT_EQ(cm_->net_retries(), o.retries);
  EXPECT_TRUE(o.remote);
  // A clean fetch would complete earlier.
  EXPECT_GT(o.done, cfg_.min_remote_latency());
}

TEST_F(FaultedMemoryTest, RetriesEmitEventsAndBackOffExponentially) {
  build();
  obs::EventSink sink;
  obs::Probe probe(nullptr, &sink);
  cm_->set_probe(&probe);
  cm_->fault_plan().add_rule({fault::FaultKind::kDrop, NodeId{0}, NodeId{1}, Cycle{0}, Cycle{2000}});
  const auto o = cm_->access(0, addr(VPageId{4}), false, Cycle{0});
  EXPECT_EQ(sink.count(obs::EventKind::kRetry), o.retries);
  EXPECT_GT(sink.count(obs::EventKind::kFaultInjected), 0u);
}

TEST_F(FaultedMemoryTest, ForcedNackIsCountedEverywhere) {
  build();
  obs::EventSink sink;
  obs::Probe probe(nullptr, &sink);
  cm_->set_probe(&probe);
  // Home node 1 NACKs every request before cycle 500.
  cm_->fault_plan().add_rule(
      {fault::FaultKind::kNack, kInvalidNode, NodeId{1}, Cycle{0}, Cycle{500}});
  const auto o = cm_->access(0, addr(VPageId{4}), false, Cycle{0});
  EXPECT_GT(o.nacks, 0u);
  EXPECT_EQ(cm_->nacks_received(), o.nacks);
  EXPECT_EQ(cm_->directory().nacks(), o.nacks);
  EXPECT_EQ(sink.count(obs::EventKind::kNack), o.nacks);
  // The NACKed request performed no directory transition until it got in.
  EXPECT_TRUE(cm_->directory().in_copyset(cfg_.block_of(addr(VPageId{4})), NodeId{0}));
}

TEST_F(FaultedMemoryTest, NackedRunIsSlowerButStateIdentical) {
  build();
  const auto faulted = cm_->access(0, addr(VPageId{4}), false, Cycle{0});

  pts_.clear();
  cm_.reset();
  build();
  const auto clean = cm_->access(0, addr(VPageId{4}), false, Cycle{0});
  EXPECT_EQ(clean.done, faulted.done);  // no rules: identical machines

  pts_.clear();
  cm_.reset();
  build();
  cm_->fault_plan().add_rule(
      {fault::FaultKind::kNack, kInvalidNode, NodeId{1}, Cycle{0}, Cycle{300}});
  const auto nacked = cm_->access(0, addr(VPageId{4}), false, Cycle{0});
  EXPECT_GT(nacked.done, clean.done);
  EXPECT_EQ(nacked.source, clean.source);
  EXPECT_EQ(nacked.remote, clean.remote);
}

TEST_F(FaultedMemoryTest, WatchdogTripsOnAPermanentDrop) {
  cfg_.watchdog_cycles = Cycle{5000};
  build();
  obs::EventSink sink;
  obs::Probe probe(nullptr, &sink);
  cm_->set_probe(&probe);
  cm_->fault_plan().add_rule({fault::FaultKind::kDrop, NodeId{0}, NodeId{1}, Cycle{0}, kNeverCycle});
  try {
    cm_->access(0, addr(VPageId{4}), false, Cycle{0});
    FAIL() << "expected WatchdogError";
  } catch (const fault::WatchdogError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("forward-progress watchdog tripped"),
              std::string::npos);
    EXPECT_NE(msg.find("in-flight: load by proc 0"), std::string::npos);
    EXPECT_NE(msg.find("protocol state at cycle"), std::string::npos);
    EXPECT_NE(msg.find("engine free_at"), std::string::npos);
  }
  EXPECT_EQ(cm_->watchdog().trips(), 1u);
  EXPECT_EQ(sink.count(obs::EventKind::kWatchdogTrip), 1u);
  // The trace survived the abort: the injected drops are all recorded.
  EXPECT_GT(sink.count(obs::EventKind::kFaultInjected), 0u);
}

TEST_F(FaultedMemoryTest, RetryBudgetBackstopsWhenWatchdogIsOff) {
  cfg_.retry_max_attempts = 3;
  build();
  cm_->fault_plan().add_rule({fault::FaultKind::kDrop, NodeId{0}, NodeId{1}, Cycle{0}, kNeverCycle});
  try {
    cm_->access(0, addr(VPageId{4}), false, Cycle{0});
    FAIL() << "expected WatchdogError";
  } catch (const fault::WatchdogError& e) {
    EXPECT_NE(std::string(e.what()).find("retry budget exhausted"),
              std::string::npos);
  }
}

TEST_F(FaultedMemoryTest, NackBudgetBackstopsAgainstNackLivelock) {
  cfg_.retry_max_attempts = 3;
  build();
  cm_->fault_plan().add_rule(
      {fault::FaultKind::kNack, kInvalidNode, NodeId{1}, Cycle{0}, kNeverCycle});
  try {
    cm_->access(0, addr(VPageId{4}), false, Cycle{0});
    FAIL() << "expected WatchdogError";
  } catch (const fault::WatchdogError& e) {
    EXPECT_NE(std::string(e.what()).find("NACK retry budget exhausted"),
              std::string::npos);
  }
}

TEST_F(FaultedMemoryTest, WatchdogDisarmedAfterEachAccess) {
  cfg_.watchdog_cycles = Cycle{5000};
  build();
  cm_->access(0, addr(VPageId{4}), false, Cycle{0});
  EXPECT_FALSE(cm_->watchdog().in_flight().active);
  // A later clean access at a huge cycle must not trip on the old arming.
  const auto o = cm_->access(0, addr(VPageId{4}), false, Cycle{10'000'000});
  EXPECT_GT(o.done, Cycle{10'000'000});
}

// ---- Watchdog unit ---------------------------------------------------------

TEST(Watchdog, DisabledNeverExpires) {
  fault::Watchdog wd;
  wd.arm(0, Addr{0}, false, Cycle{0});
  EXPECT_FALSE(wd.expired(kNeverCycle - Cycle{1}));
}

TEST(Watchdog, ExpiresStrictlyPastTheBound) {
  fault::Watchdog wd(Cycle{100});
  wd.arm(1, Addr{0x40}, true, Cycle{50});
  EXPECT_FALSE(wd.expired(Cycle{150}));  // exactly at the bound
  EXPECT_TRUE(wd.expired(Cycle{151}));
  wd.disarm();
  EXPECT_FALSE(wd.expired(Cycle{151}));
}

TEST(Watchdog, TripThrowsWithDiagnostics) {
  fault::Watchdog wd(Cycle{100});
  wd.arm(3, Addr{0x1000}, true, Cycle{0});
  wd.note_retry();
  wd.note_nack();
  try {
    wd.trip(Cycle{500}, "  custom state dump");
    FAIL() << "expected WatchdogError";
  } catch (const fault::WatchdogError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("store by proc 3"), std::string::npos);
    EXPECT_NE(msg.find("1 retransmission(s), 1 NACK(s)"), std::string::npos);
    EXPECT_NE(msg.find("custom state dump"), std::string::npos);
  }
  EXPECT_EQ(wd.trips(), 1u);
}

// ---- invariant sweep -------------------------------------------------------

TEST_F(FaultedMemoryTest, CleanStatePassesTheSweep) {
  build();
  cm_->access(0, addr(VPageId{4}), false, Cycle{0});
  cm_->access(1, addr(VPageId{4}), true, Cycle{1000});
  const auto rep = fault::check_coherence_invariants(*cm_, {}, {});
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GT(rep.blocks_checked, 0u);
}

TEST_F(FaultedMemoryTest, SweepDetectsACopysetHoleBehindAValidCache) {
  build();
  cm_->access(0, addr(VPageId{4}), false, Cycle{0});  // node 0 now caches the block
  // Plant the corruption a lost protocol message would cause: the directory
  // forgets node 0 while the node still holds the line in L1/RAC.
  cm_->directory().flush_node(cfg_.block_of(addr(VPageId{4})), NodeId{0});
  const auto rep = fault::check_coherence_invariants(*cm_, {}, {});
  EXPECT_FALSE(rep.ok());
  EXPECT_GE(rep.total_violations, 1u);
  EXPECT_NE(rep.to_string().find("not in copyset"), std::string::npos);
}

TEST_F(FaultedMemoryTest, SweepDetectsAnUnfetchedCopysetMember) {
  build();
  // Plant the converse corruption: the directory lists node 2 as a sharer
  // of a remote block the node never fetched, so a page flush, which
  // releases only fetched blocks, would leave the entry behind.
  const BlockId b = cfg_.block_of(addr(VPageId{4}));
  cm_->directory().gets(b, NodeId{2});
  ASSERT_FALSE(cm_->block_fetched(NodeId{2}, b));
  const auto rep = fault::check_coherence_invariants(*cm_, {}, {});
  EXPECT_EQ(rep.total_violations, 1u) << rep.to_string();
  EXPECT_NE(rep.to_string().find(
                "node 2 block " + std::to_string(b.value()) +
                ": node in copyset of a remote block it has not fetched"),
            std::string::npos)
      << rep.to_string();
}

TEST_F(FaultedMemoryTest, SweepReportsAreCappedButCountsAreExact) {
  build();
  // Touch every block of the remote page, then corrupt all of them plus
  // more planted holes than the report cap.
  for (std::uint32_t b = 0; b < cfg_.blocks_per_page(); ++b)
    cm_->access(0, addr(VPageId{4}, b * (cfg_.block_bytes / cfg_.line_bytes)), false,
                Cycle{b * 1000ull});
  const BlockId first = cfg_.first_block_of_page(PageId{4});
  for (std::uint32_t i = 0; i < cfg_.blocks_per_page(); ++i)
    cm_->directory().flush_node(first + i, NodeId{0});
  const auto rep = fault::check_coherence_invariants(*cm_, {}, {});
  EXPECT_FALSE(rep.ok());
  EXPECT_LE(rep.violations.size(), fault::InvariantReport::kMaxReported);
  EXPECT_GE(rep.total_violations, rep.violations.size());
}

}  // namespace
}  // namespace ascoma
