// Network jitter (seed threading, determinism, timing and events) and the
// post-run coherence invariant sweep.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "fault/invariants.hh"
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

// ---- network jitter --------------------------------------------------------

class FaultyNetworkTest : public ::testing::Test {
 protected:
  FaultyNetworkTest() : cfg_([] {
    MachineConfig c;
    c.nodes = 4;
    return c;
  }()) {}

  /// cfg_ with every message jittered by 1..`max` cycles.
  MachineConfig jittered(Cycle max) const {
    MachineConfig c = cfg_;
    c.fault_jitter = 1.0;
    c.fault_jitter_cycles = max;
    return c;
  }

  MachineConfig cfg_;
};

// The jitter seed and bound do nothing while the probability is 0: no draw
// is made and every message lands where a default network puts it.
TEST_F(FaultyNetworkTest, DisabledPlanKeepsDeliveryBitIdentical) {
  net::Network bare(cfg_);
  MachineConfig off = cfg_;
  off.fault_jitter_cycles = Cycle{1000};
  off.fault_seed = 99;
  net::Network quiet(off);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const NodeId src{static_cast<std::uint32_t>(i % 4)};
    EXPECT_EQ(quiet.deliver(Cycle{i}, src, NodeId{1}),
              bare.deliver(Cycle{i}, src, NodeId{1}));
  }
  EXPECT_EQ(quiet.jitters(), 0u);
}

// try_deliver(), the benchmark's entry point, is deliver() under another
// name: every message lands at the same cycle with the same port
// bookkeeping.
TEST_F(FaultyNetworkTest, FastPathMatchesAttemptPath) {
  net::Network via_try(cfg_);
  net::Network fast(cfg_);

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
  for (const Msg& m : seq) {
    const Cycle via_fast = fast.deliver(m.now, m.src, m.dst);
    EXPECT_EQ(via_try.try_deliver(m.now, m.src, m.dst).arrival, via_fast)
        << m.src << " -> " << m.dst << " at " << m.now;
  }
  EXPECT_EQ(via_try.messages(), fast.messages());
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n)
    EXPECT_EQ(via_try.input_port(n).free_at(), fast.input_port(n).free_at());
  // Port 1's last reservation is the late message, which found it free.
  EXPECT_EQ(fast.input_port(NodeId{1}).free_at(),
            Cycle{400} + fast.min_one_way_latency() - cfg_.net_interface_cycles);
}

TEST_F(FaultyNetworkTest, JitterDelaysArrival) {
  net::Network clean(cfg_);
  net::Network one(jittered(Cycle{1}));
  EXPECT_EQ(one.deliver(Cycle{0}, NodeId{0}, NodeId{1}),
            clean.deliver(Cycle{0}, NodeId{0}, NodeId{1}) + Cycle{1});
  EXPECT_EQ(one.jitters(), 1u);

  // Spaced far apart, no message queues: each is late by its jitter alone,
  // which stays within 1..fault_jitter_cycles.
  net::Network wide(jittered(Cycle{16}));
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Cycle now{i * 1000};
    const Cycle late = wide.deliver(now, NodeId{0}, NodeId{2}) -
                       (now + wide.min_one_way_latency());
    EXPECT_GE(late, Cycle{1});
    EXPECT_LE(late, Cycle{16});
  }
  EXPECT_EQ(wide.jitters(), 200u);

  // A loopback never enters the fabric, so it is neither drawn for nor late.
  EXPECT_EQ(wide.deliver(Cycle{7}, NodeId{3}, NodeId{3}), Cycle{7});
  EXPECT_EQ(wide.jitters(), 200u);
}

TEST_F(FaultyNetworkTest, SameSeedReplaysTheSameJitter) {
  MachineConfig cfg = jittered(Cycle{64});
  cfg.fault_jitter = 0.5;
  net::Network a(cfg), b(cfg);
  cfg.fault_seed = 0xBADCAFE;
  net::Network other(cfg);
  bool diverged = false;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const Cycle now{i * 1000};
    const Cycle at = a.deliver(now, NodeId{0}, NodeId{1});
    EXPECT_EQ(b.deliver(now, NodeId{0}, NodeId{1}), at);
    diverged |= other.deliver(now, NodeId{0}, NodeId{1}) != at;
  }
  EXPECT_EQ(a.jitters(), b.jitters());
  EXPECT_GT(a.jitters(), 0u);
  EXPECT_LT(a.jitters(), 500u);
  EXPECT_TRUE(diverged);
}

TEST_F(FaultyNetworkTest, FaultEventsAreEmitted) {
  obs::EventSink sink;
  obs::Probe probe(nullptr, &sink);
  net::Network net(jittered(Cycle{1}));
  net.set_probe(&probe);
  net.deliver(Cycle{5}, NodeId{0}, NodeId{2});
  ASSERT_EQ(sink.count(obs::EventKind::kFaultInjected), 1u);
  const obs::Event& e = sink.events().front();
  EXPECT_EQ(e.cycle, Cycle{5});
  EXPECT_EQ(e.node, NodeId{0});
  EXPECT_EQ(e.a, 2u);  // destination
  EXPECT_EQ(e.b, 1u);  // jitter cycles
}

// ---- invariant sweep -------------------------------------------------------

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
