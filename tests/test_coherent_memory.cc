#include "proto/coherent_memory.hh"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/rng.hh"
#include "fault/invariants.hh"

namespace ascoma::proto {
namespace {

// 4 nodes, 4 home pages each, contiguous layout.  Page tables are driven by
// hand so every hardware path can be exercised in isolation.
class CoherentMemoryTest : public ::testing::Test {
 protected:
  CoherentMemoryTest() : homes_(16, 4) {
    homes_.assign_contiguous();
    for (NodeId n{0}; n.value() < 4; ++n) {
      pts_.push_back(std::make_unique<vm::PageTable>(16));
      for (VPageId p{n.value() * 4ull}; p < VPageId{(n.value() + 1) * 4ull}; ++p)
        pts_[n.value()]->map_home(p);
    }
    cfg_.nodes = 4;
    cm_ = std::make_unique<CoherentMemory>(cfg_, homes_);
    std::vector<const vm::PageTable*> ptrs;
    for (auto& pt : pts_) ptrs.push_back(pt.get());
    cm_->set_page_tables(ptrs);
  }

  Addr addr(VPageId page, std::uint64_t line_in_page) const {
    return Addr{page.value() * cfg_.page_bytes.value() +
                line_in_page * cfg_.line_bytes.value()};
  }

  /// The end-of-run block sweep (directory structure and residency) over
  /// the current state.
  void expect_invariants_hold() const {
    const fault::InvariantReport rep =
        fault::check_coherence_invariants(*cm_, {}, {});
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }

  MachineConfig cfg_;
  vm::HomeMap homes_;
  std::vector<std::unique_ptr<vm::PageTable>> pts_;
  std::unique_ptr<CoherentMemory> cm_;
};

// ---- Table 4: minimum latencies -------------------------------------------

TEST_F(CoherentMemoryTest, LocalHomeMissCosts50Cycles) {
  const auto o = cm_->access(0, addr(VPageId{0}, 0), false, Cycle{0});
  EXPECT_EQ(o.done, cfg_.min_local_latency());
  EXPECT_EQ(o.done, Cycle{50});
  EXPECT_TRUE(o.counted_miss);
  EXPECT_EQ(o.source, MissSource::kHome);
  EXPECT_FALSE(o.remote);
}

TEST_F(CoherentMemoryTest, L1HitCostsOneCycle) {
  cm_->access(0, addr(VPageId{0}, 0), false, Cycle{0});
  const auto o = cm_->access(0, addr(VPageId{0}, 0), false, Cycle{100});
  EXPECT_TRUE(o.l1_hit);
  EXPECT_FALSE(o.counted_miss);
  EXPECT_EQ(o.done, Cycle{101});
}

TEST_F(CoherentMemoryTest, RemoteCleanFetchCosts150Cycles) {
  pts_[0]->map_numa(VPageId{4});  // page 4 homed at node 1
  const auto o = cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  EXPECT_EQ(o.done, cfg_.min_remote_latency());
  // 4 nodes -> one switch stage -> 138; the paper's 8-node machine gives the
  // full Table 4 value of 150 (asserted in test_config).
  EXPECT_EQ(o.done, Cycle{138});
  EXPECT_TRUE(o.remote);
  EXPECT_EQ(o.source, MissSource::kCold);
}

TEST_F(CoherentMemoryTest, RacHitCosts36Cycles) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});  // fetches block, fills RAC + L1
  // Line 1 is in the same 4-line block: L1 miss, RAC hit.
  const auto o = cm_->access(0, addr(VPageId{4}, 1), false, Cycle{1000});
  EXPECT_EQ(o.done - Cycle{1000}, cfg_.min_rac_latency());
  EXPECT_EQ(o.done - Cycle{1000}, Cycle{36});
  EXPECT_EQ(o.source, MissSource::kRac);
  EXPECT_FALSE(o.remote);
  EXPECT_EQ(cm_->rac(NodeId{0}).hits(), 1u);
}

TEST_F(CoherentMemoryTest, ScomaValidHitCostsLocalLatency) {
  pts_[0]->map_scoma(VPageId{4}, FrameId{0});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});  // cold remote fetch fills the block
  const auto o = cm_->access(0, addr(VPageId{4}, 1), false, Cycle{1000});
  EXPECT_EQ(o.done - Cycle{1000}, cfg_.min_local_latency());
  EXPECT_EQ(o.source, MissSource::kScoma);
  EXPECT_FALSE(o.remote);
}

// ---- classification ---------------------------------------------------------

TEST_F(CoherentMemoryTest, RefetchClassifiedConflict) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  // Evict from L1 and RAC by an aliasing access, then refetch.
  cm_->l1(0).invalidate_block(cfg_.block_of(addr(VPageId{4}, 0)));
  cm_->rac(NodeId{0}).invalidate(cfg_.block_of(addr(VPageId{4}, 0)));
  const auto o = cm_->access(0, addr(VPageId{4}, 0), false, Cycle{1000});
  EXPECT_EQ(o.source, MissSource::kConfCapc);
  EXPECT_TRUE(o.counted_refetch);
  EXPECT_EQ(o.page_refetch_count, 1u);
  EXPECT_EQ(cm_->refetch().count(VPageId{4}, NodeId{0}), 1u);
}

TEST_F(CoherentMemoryTest, InvalidationMissClassifiedCoherence) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});   // node 0 reads
  cm_->access(1, addr(VPageId{4}, 0), true, Cycle{100});  // home node 1 writes: invalidates 0
  const auto o = cm_->access(0, addr(VPageId{4}, 0), false, Cycle{1000});
  EXPECT_EQ(o.source, MissSource::kCoherence);
  EXPECT_FALSE(o.counted_refetch);  // not a conflict refetch
  EXPECT_EQ(cm_->refetch().count(VPageId{4}, NodeId{0}), 0u);
}

TEST_F(CoherentMemoryTest, ColdMissesDoNotCountAsRefetches) {
  pts_[0]->map_numa(VPageId{4});
  const auto o = cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  EXPECT_EQ(o.source, MissSource::kCold);
  EXPECT_FALSE(o.counted_refetch);
  EXPECT_FALSE(o.induced_cold);
}

TEST_F(CoherentMemoryTest, FlushThenRefetchIsInducedCold) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  cm_->flush_page(NodeId{0}, VPageId{4}, Cycle{100});
  const auto o = cm_->access(0, addr(VPageId{4}, 0), false, Cycle{1000});
  EXPECT_EQ(o.source, MissSource::kCold);
  EXPECT_TRUE(o.induced_cold);
}

// ---- S-COMA valid bits ------------------------------------------------------

TEST_F(CoherentMemoryTest, ScomaBlockFetchSetsWholeBlockValid) {
  pts_[0]->map_scoma(VPageId{4}, FrameId{0});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  // All four lines of the block are now backed locally: lines 1-3 are L1
  // misses satisfied from the page cache, not remote.
  for (std::uint64_t l = 1; l < 4; ++l) {
    const auto o = cm_->access(0, addr(VPageId{4}, l), false, Cycle{1000 + l});
    EXPECT_EQ(o.source, MissSource::kScoma) << "line " << l;
  }
  // Line 4 is the next block: remote again.
  const auto o = cm_->access(0, addr(VPageId{4}, 4), false, Cycle{5000});
  EXPECT_EQ(o.source, MissSource::kCold);
}

TEST_F(CoherentMemoryTest, InvalidationClearsScomaValidBit) {
  pts_[0]->map_scoma(VPageId{4}, FrameId{0});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  cm_->access(1, addr(VPageId{4}, 0), true, Cycle{500});  // home writes, invalidates replica
  const auto o = cm_->access(0, addr(VPageId{4}, 0), false, Cycle{1000});
  EXPECT_EQ(o.source, MissSource::kCoherence);  // had to refetch remotely
}

TEST_F(CoherentMemoryTest, ScomaStoreRequiresOwnershipOnce) {
  pts_[0]->map_scoma(VPageId{4}, FrameId{0});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});  // read: shared replica
  // Store to the valid replica: ownership-only round trip (kCoherence).
  const auto o1 = cm_->access(0, addr(VPageId{4}, 1), true, Cycle{1000});
  EXPECT_EQ(o1.source, MissSource::kCoherence);
  EXPECT_TRUE(o1.remote);
  // Subsequent store misses to the same block are local: node owns it.
  cm_->l1(0).invalidate_block(cfg_.block_of(addr(VPageId{4}, 0)));
  const auto o2 = cm_->access(0, addr(VPageId{4}, 2), true, Cycle{5000});
  EXPECT_EQ(o2.source, MissSource::kScoma);
  EXPECT_FALSE(o2.remote);
}

// ---- store/ownership paths --------------------------------------------------

TEST_F(CoherentMemoryTest, StoreHitWithoutOwnershipUpgrades) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});  // read: line in L1, shared
  const auto o = cm_->access(0, addr(VPageId{4}, 0), true, Cycle{1000});
  EXPECT_TRUE(o.l1_hit);
  EXPECT_FALSE(o.counted_miss);  // upgrade, not a data miss
  EXPECT_TRUE(o.remote);
  EXPECT_EQ(cm_->directory().owner(cfg_.block_of(addr(VPageId{4}, 0))),
            NodeId{0});
}

TEST_F(CoherentMemoryTest, StoreHitWithOwnershipIsOneCycle) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), true, Cycle{0});  // store fetch: owner now
  const auto o = cm_->access(0, addr(VPageId{4}, 0), true, Cycle{1000});
  EXPECT_TRUE(o.l1_hit);
  EXPECT_FALSE(o.remote);
  EXPECT_EQ(o.done, Cycle{1001});
}

TEST_F(CoherentMemoryTest, GetxInvalidatesAllSharerCaches) {
  pts_[0]->map_numa(VPageId{4});
  pts_[2]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  cm_->access(2, addr(VPageId{4}, 0), false, Cycle{100});
  cm_->access(1, addr(VPageId{4}, 0), true, Cycle{1000});  // home node writes
  // Sharers lost every copy.
  EXPECT_FALSE(cm_->l1(0).probe(cfg_.line_of(addr(VPageId{4}, 0))));
  EXPECT_FALSE(cm_->l1(2).probe(cfg_.line_of(addr(VPageId{4}, 0))));
  EXPECT_FALSE(cm_->rac(NodeId{0}).probe(cfg_.block_of(addr(VPageId{4}, 0))));
  EXPECT_EQ(cm_->directory().owner(cfg_.block_of(addr(VPageId{4}, 0))),
            NodeId{1});
  expect_invariants_hold();
}

TEST_F(CoherentMemoryTest, DirtyRemoteDataForwardedToHomeReader) {
  pts_[2]->map_numa(VPageId{0});  // page 0 homed at node 0
  cm_->access(2, addr(VPageId{0}, 0), true, Cycle{0});  // node 2 owns the block dirty
  // Home node reads its own page: 3-hop through the owner.
  const auto o = cm_->access(0, addr(VPageId{0}, 0), false, Cycle{1000});
  EXPECT_EQ(o.source, MissSource::kCoherence);
  EXPECT_TRUE(o.remote);
  EXPECT_GT(o.done - Cycle{1000}, cfg_.min_local_latency());
  EXPECT_EQ(cm_->directory().forwards(), 1u);
}

TEST_F(CoherentMemoryTest, DirtyRemoteForwardBetweenThirdParties) {
  pts_[2]->map_numa(VPageId{4});
  pts_[3]->map_numa(VPageId{4});
  cm_->access(2, addr(VPageId{4}, 0), true, Cycle{0});  // node 2 dirty owner (home = 1)
  const auto o = cm_->access(3, addr(VPageId{4}, 0), false, Cycle{1000});  // 3-hop
  EXPECT_TRUE(o.remote);
  EXPECT_GT(o.done - Cycle{1000}, cfg_.min_remote_latency());
  expect_invariants_hold();
}

// ---- flush_page ------------------------------------------------------------

TEST_F(CoherentMemoryTest, FlushPageReportsL1Lines) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  cm_->access(0, addr(VPageId{4}, 8), true, Cycle{100});
  const auto fo = cm_->flush_page(NodeId{0}, VPageId{4}, Cycle{1000});
  EXPECT_EQ(fo.l1_valid_lines, 2u);
  EXPECT_EQ(fo.l1_dirty_lines, 1u);
  EXPECT_EQ(fo.blocks_released, 2u);
  EXPECT_FALSE(cm_->directory().in_copyset(cfg_.block_of(addr(VPageId{4}, 0)), NodeId{0}));
}

TEST_F(CoherentMemoryTest, FlushPageResetsRefetchCounter) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  cm_->l1(0).invalidate_block(cfg_.block_of(addr(VPageId{4}, 0)));
  cm_->rac(NodeId{0}).invalidate(cfg_.block_of(addr(VPageId{4}, 0)));
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{500});
  EXPECT_EQ(cm_->refetch().count(VPageId{4}, NodeId{0}), 1u);
  cm_->flush_page(NodeId{0}, VPageId{4}, Cycle{1000});
  EXPECT_EQ(cm_->refetch().count(VPageId{4}, NodeId{0}), 0u);
  EXPECT_EQ(cm_->refetch().cumulative(VPageId{4}, NodeId{0}), 1u);
}

TEST_F(CoherentMemoryTest, FlushOfUntouchedPageIsNoop) {
  pts_[0]->map_numa(VPageId{5});
  const auto fo = cm_->flush_page(NodeId{0}, VPageId{5}, Cycle{0});
  EXPECT_EQ(fo.l1_valid_lines, 0u);
  EXPECT_EQ(fo.blocks_released, 0u);
}

// A 4-node machine over 16 contiguous-homed pages; every node maps each
// remote page at random in S-COMA or CC-NUMA mode.
struct RandomMachine {
  static constexpr std::uint32_t kNodes = 4;
  static constexpr std::uint64_t kPages = 16;

  RandomMachine(std::uint32_t procs_per_node, Rng& rng)
      : cfg(config(procs_per_node)), homes(kPages, kNodes) {
    homes.assign_contiguous();
    std::vector<const vm::PageTable*> ptrs;
    for (NodeId n{0}; n.value() < kNodes; ++n) {
      pts.push_back(std::make_unique<vm::PageTable>(kPages));
      for (VPageId p{0}; p.value() < kPages; ++p) {
        if (homes.home_of(p) == n)
          pts.back()->map_home(p);
        else if (rng.chance(0.5))
          pts.back()->map_scoma(
              p, FrameId{static_cast<std::uint32_t>(p.value())});
        else
          pts.back()->map_numa(p);
      }
      ptrs.push_back(pts.back().get());
    }
    cm = std::make_unique<CoherentMemory>(cfg, homes);
    cm->set_page_tables(ptrs);
  }
  // `cm` refers to `homes`: pinned in place.
  RandomMachine(const RandomMachine&) = delete;
  RandomMachine& operator=(const RandomMachine&) = delete;

  static MachineConfig config(std::uint32_t procs_per_node) {
    MachineConfig c;
    c.nodes = kNodes;
    c.procs_per_node = procs_per_node;
    return c;
  }

  /// `n` loads and stores (30% stores) by random processors to random
  /// lines; returns the last completion cycle.
  Cycle run(Rng& rng, int n, Cycle t) {
    const std::uint64_t lpp = cfg.lines_per_page();
    for (int i = 0; i < n; ++i) {
      const auto proc =
          static_cast<std::uint32_t>(rng.below(cfg.total_procs()));
      const VPageId page{rng.below(kPages)};
      const Addr a{page.value() * cfg.page_bytes.value() +
                   rng.below(lpp) * cfg.line_bytes.value()};
      t = cm->access(proc, a, rng.chance(0.3), t + Cycle{1}).done;
    }
    return t;
  }

  /// A random (node, page) pair whose page is homed on another node.
  std::pair<NodeId, VPageId> remote_pair(Rng& rng) const {
    const NodeId node{static_cast<std::uint32_t>(rng.below(kNodes))};
    VPageId page{rng.below(kPages)};
    while (homes.home_of(page) == node) page = VPageId{rng.below(kPages)};
    return {node, page};
  }

  MachineConfig cfg;
  vm::HomeMap homes;
  std::vector<std::unique_ptr<vm::PageTable>> pts;
  std::unique_ptr<CoherentMemory> cm;
};

TEST(CoherentMemory, FlushRejectsAHomePage) {
  // The requester-side masks track remote copyset membership only, so a
  // node never flushes a page it is home to.
  Rng rng(1);
  RandomMachine m(1, rng);
  const Cycle t = m.run(rng, 200, Cycle{0});
  EXPECT_THROW(m.cm->flush_page(NodeId{0}, VPageId{0}, t),
               ascoma::CheckFailure);
}

// flush_page visits only the node's fetched blocks.  The reference is the
// full scan it replaced: every valid L1 line of the page on each of the
// node's processors, and every copyset entry of the page, read before the
// flush.
void check_flush_against_full_scan(std::uint32_t procs_per_node,
                                   std::uint64_t seed) {
  Rng rng(seed);
  RandomMachine m(procs_per_node, rng);
  const MachineConfig& cfg = m.cfg;
  CoherentMemory& cm = *m.cm;

  const std::uint64_t lpp = cfg.lines_per_page();
  Cycle t{0};
  std::uint64_t lines_flushed = 0;
  for (int round = 0; round < 60; ++round) {
    // Every node loads and stores, so the flushed node's copies are also
    // invalidated and forwarded by other nodes' stores in between.
    t = m.run(rng, 200, t);

    const auto [node, page] = m.remote_pair(rng);
    const std::uint32_t q0 = node.value() * procs_per_node;

    std::uint32_t want_valid = 0;
    std::uint32_t want_dirty = 0;
    for (std::uint32_t q = q0; q < q0 + procs_per_node; ++q)
      for (const LineId line : cm.l1(q).valid_line_ids())
        if (line.value() / lpp == page.value()) {
          ++want_valid;
          want_dirty += cm.l1(q).line_dirty(line) ? 1 : 0;
        }
    std::uint32_t want_released = 0;
    const BlockId first = cfg.first_block_of_page(page);
    for (std::uint32_t i = 0; i < cfg.blocks_per_page(); ++i) {
      const bool member = cm.directory().in_copyset(first + i, node);
      // The flush's precondition: the fetched blocks are the copyset blocks.
      ASSERT_EQ(cm.block_fetched(node, first + i), member)
          << "round " << round << " node " << node << " block " << first + i;
      want_released += member ? 1 : 0;
    }

    const auto fo = cm.flush_page(node, page, t);
    SCOPED_TRACE(::testing::Message() << "round " << round << " node " << node
                                      << " page " << page);
    ASSERT_EQ(fo.l1_valid_lines, want_valid);
    ASSERT_EQ(fo.l1_dirty_lines, want_dirty);
    ASSERT_EQ(fo.blocks_released, want_released);
    for (std::uint32_t q = q0; q < q0 + procs_per_node; ++q)
      for (const LineId line : cm.l1(q).valid_line_ids())
        ASSERT_NE(line.value() / lpp, page.value()) << "proc " << q;
    const fault::InvariantReport rep =
        fault::check_coherence_invariants(cm, {}, {});
    ASSERT_TRUE(rep.ok()) << rep.to_string();
    lines_flushed += fo.l1_valid_lines;
  }
  EXPECT_GT(lines_flushed, 0u);  // the flushes found resident lines
}

TEST(CoherentMemory, FlushMatchesFullScanReference) {
  for (const std::uint32_t ppn : {1u, 2u})
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "procs_per_node " << ppn
                                        << " seed " << seed);
      check_flush_against_full_scan(ppn, seed);
    }
}

// remote_pages_touched is derived from the ever-fetched masks; the
// reference is the set of (node, remote page) pairs the test itself
// accessed.  Page flushes in between make later touches of a page refetch
// into cleared state, which must not count it twice.
TEST(CoherentMemory, RemotePagesTouchedCountsEveryRemotePageAccessed) {
  for (const std::uint32_t ppn : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "procs_per_node " << ppn);
    Rng rng(11 + ppn);
    RandomMachine m(ppn, rng);
    const MachineConfig& cfg = m.cfg;
    std::set<std::pair<NodeId, VPageId>> touched;
    Cycle t{0};
    for (int round = 0; round < 150; ++round) {
      for (int i = 0; i < 4; ++i) {
        const auto proc =
            static_cast<std::uint32_t>(rng.below(cfg.total_procs()));
        const VPageId page{rng.below(RandomMachine::kPages)};
        const Addr a{page.value() * cfg.page_bytes.value() +
                     rng.below(cfg.lines_per_page()) * cfg.line_bytes.value()};
        t = m.cm->access(proc, a, rng.chance(0.3), t + Cycle{1}).done;
        const NodeId node = m.cm->node_of(proc);
        if (m.homes.home_of(page) != node) touched.emplace(node, page);
      }
      const auto [node, page] = m.remote_pair(rng);
      m.cm->flush_page(node, page, t);
      for (NodeId n{0}; n.value() < RandomMachine::kNodes; ++n) {
        std::uint64_t want = 0;
        for (const auto& [tn, tp] : touched) want += tn == n ? 1 : 0;
        ASSERT_EQ(m.cm->remote_pages_touched(n), want)
            << "round " << round << " node " << n;
      }
    }
    // Every remote page of every node was reached.
    EXPECT_EQ(touched.size(),
              RandomMachine::kNodes * (RandomMachine::kPages -
                                       RandomMachine::kPages /
                                           RandomMachine::kNodes));
  }
}

TEST(CoherentMemory, ConstructorRejectsMoreThan64BlocksPerPage) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.block_bytes = ByteCount{32};  // 4096 / 32 = 128 blocks per page
  vm::HomeMap homes(4, 2);
  EXPECT_THROW(CoherentMemory(cfg, homes), ascoma::CheckFailure);
}

// ---- writebacks ------------------------------------------------------------

TEST_F(CoherentMemoryTest, DirtyVictimWritesBackRemotely) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), true, Cycle{0});  // dirty line in L1
  // Page 8 aliases page 4 in the L1 (512 lines = 4 pages): evicts the line.
  pts_[0]->map_numa(VPageId{8});
  cm_->access(0, addr(VPageId{8}, 0), false, Cycle{1000});
  EXPECT_EQ(cm_->writebacks_remote(), 1u);
}

TEST_F(CoherentMemoryTest, DirtyHomeVictimWritesBackLocally) {
  cm_->access(0, addr(VPageId{0}, 0), true, Cycle{0});
  pts_[0]->map_numa(VPageId{4});  // page 4 aliases page 0 in the L1
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{1000});
  EXPECT_EQ(cm_->writebacks_local(), 1u);
}

// ---- remote page census ------------------------------------------------------

TEST_F(CoherentMemoryTest, RemotePagesTouchedCensus) {
  pts_[0]->map_numa(VPageId{4});
  pts_[0]->map_numa(VPageId{8});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  cm_->access(0, addr(VPageId{4}, 1), false, Cycle{10});
  cm_->access(0, addr(VPageId{8}, 0), false, Cycle{20});
  cm_->access(0, addr(VPageId{0}, 0), false, Cycle{30});  // home page: not remote
  EXPECT_EQ(cm_->remote_pages_touched(NodeId{0}), 2u);
}

// ---- invariants --------------------------------------------------------------

TEST_F(CoherentMemoryTest, CoherenceShadowCatchesStaleCopies) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});    // node 0 caches the line
  cm_->access(1, addr(VPageId{4}, 0), true, Cycle{500});   // home writes: invalidates node 0
  EXPECT_FALSE(cm_->l1(0).probe(cfg_.line_of(addr(VPageId{4}, 0))));
  // Tamper: resurrect the stale line in node 0's L1 behind the protocol's
  // back.  The functional shadow must refuse to serve it.
  cm_->l1(0).fill(cfg_.line_of(addr(VPageId{4}, 0)), false);
  // The diagnostic names the violation, the serving site, the node and the
  // block.
  const BlockId b = cfg_.block_of(addr(VPageId{4}, 0));
  try {
    cm_->access(0, addr(VPageId{4}, 0), false, Cycle{1000});
    FAIL() << "stale L1 hit was served";
  } catch (const ascoma::CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("coherence violation"), std::string::npos) << what;
    EXPECT_NE(what.find("at L1 hit"), std::string::npos) << what;
    EXPECT_NE(what.find("(node 0,"), std::string::npos) << what;
    EXPECT_NE(what.find("block " + std::to_string(b.value()) + ","),
              std::string::npos)
        << what;
  }
}

TEST_F(CoherentMemoryTest, CoherenceShadowAcceptsCurrentCopies) {
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0});
  cm_->access(1, addr(VPageId{4}, 0), true, Cycle{500});
  cm_->access(0, addr(VPageId{4}, 0), false, Cycle{1000});  // refetch: current again
  const auto o = cm_->access(0, addr(VPageId{4}, 0), false, Cycle{2000});  // L1 hit, fresh
  EXPECT_TRUE(o.l1_hit);
}

TEST_F(CoherentMemoryTest, CoherenceShadowMarksNeverHeldCopyStale) {
  const BlockId b = cfg_.block_of(addr(VPageId{4}, 0));
  pts_[2]->map_numa(VPageId{4});
  EXPECT_FALSE(cm_->shadow_stale(NodeId{2}, b));
  cm_->access(1, addr(VPageId{4}, 0), true, Cycle{0});  // home writes
  // Node 2 never held the block; a later fill would have missed the store.
  EXPECT_TRUE(cm_->shadow_stale(NodeId{2}, b));
  cm_->access(2, addr(VPageId{4}, 0), false, Cycle{500});  // its own fetch
  EXPECT_FALSE(cm_->shadow_stale(NodeId{2}, b));
}

TEST_F(CoherentMemoryTest, CoherenceShadowKeepsWritersCopyCurrent) {
  const BlockId b = cfg_.block_of(addr(VPageId{4}, 0));
  pts_[0]->map_numa(VPageId{4});
  cm_->access(0, addr(VPageId{4}, 0), true, Cycle{0});
  EXPECT_FALSE(cm_->shadow_stale(NodeId{0}, b));
  const auto o = cm_->access(0, addr(VPageId{4}, 0), true, Cycle{500});
  EXPECT_TRUE(o.l1_hit);  // served from the writer's own L1: still current
  EXPECT_FALSE(cm_->shadow_stale(NodeId{0}, b));
  for (NodeId n{1}; n.value() < 4; ++n)
    EXPECT_TRUE(cm_->shadow_stale(n, b)) << "node " << n;
}

TEST_F(CoherentMemoryTest, AccessToUnmappedPageThrows) {
  EXPECT_THROW(cm_->access(0, addr(VPageId{4}, 0), false, Cycle{0}), ascoma::CheckFailure);
}

TEST_F(CoherentMemoryTest, AuditPassesAfterMixedTraffic) {
  pts_[0]->map_numa(VPageId{4});
  pts_[2]->map_scoma(VPageId{4}, FrameId{0});
  pts_[3]->map_numa(VPageId{0});  // page 0 is homed at node 0: remote for node 3
  Cycle t{0};
  for (int i = 0; i < 50; ++i) {
    cm_->access(0, addr(VPageId{4}, i % 128), i % 3 == 0, t += Cycle{200});
    cm_->access(2, addr(VPageId{4}, (i * 7) % 128), i % 5 == 0, t += Cycle{200});
    cm_->access(3, addr(VPageId{0}, i % 128), false, t += Cycle{200});
    cm_->access(1, addr(VPageId{4}, i % 128), i % 7 == 0, t += Cycle{200});
  }
  cm_->flush_page(NodeId{2}, VPageId{4}, t + Cycle{100});
  expect_invariants_hold();
}

}  // namespace
}  // namespace ascoma::proto
