#include "proto/coherent_memory.hh"

#include <algorithm>
#include <bit>
#include <sstream>
#include <string>
#include <type_traits>

#include "common/check.hh"

namespace ascoma::proto {

// A plain record, so filling the per-node vectors with zeros is a memset.
static_assert(std::is_trivial_v<CoherentMemory::PageBlocks>);

CoherentMemory::CoherentMemory(const MachineConfig& cfg,
                               const vm::HomeMap& homes)
    : cfg_(cfg),
      homes_(homes),
      ppn_(cfg.procs_per_node),
      smp_(cfg.procs_per_node > 1),
      net_(cfg),
      dir_(homes.total_pages() * cfg.blocks_per_page(), cfg.nodes),
      refetch_(homes.total_pages(), cfg.nodes) {
  ASCOMA_CHECK_MSG(cfg.blocks_per_page() <= MachineConfig::kMaxBlocksPerPage,
                   "page_bytes / block_bytes exceeds the block-mask width");
  const std::uint64_t blocks = dir_.total_blocks();
  const std::uint64_t pages = homes.total_pages();
  // The order of the per-node tables and the small components does not
  // matter: with 24-byte records, both orders measured the same peak RSS in
  // a process that builds machines one after another.  The explicit zero
  // record makes the fill one memset; without it the value-initialising
  // constructor copies the first record into the rest.
  for (std::uint32_t n = 0; n < cfg.nodes; ++n)
    blocks_.emplace_back(pages, PageBlocks{});
  l1_.reserve(cfg.total_procs());
  for (std::uint32_t p = 0; p < cfg.total_procs(); ++p)
    l1_.push_back(std::make_unique<mem::L1Cache>(cfg));
  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    rac_.push_back(std::make_unique<mem::Rac>(cfg));
    dram_.push_back(std::make_unique<mem::Dram>(cfg));
    bus_.push_back(std::make_unique<mem::Bus>(cfg));
    engine_.emplace_back();
  }
  if (cfg.check_invariants) {
    shadow_row_log2_ =
        static_cast<std::uint32_t>(std::countr_zero(std::bit_ceil(cfg.nodes)));
    stale_copies_.assign(((blocks << shadow_row_log2_) + 63) / 64, 0);
  }
}

std::uint64_t CoherentMemory::remote_pages_touched(NodeId n) const {
  std::uint64_t touched = 0;
  for (VPageId p{0}; p.value() < blocks_[n].size(); ++p)
    if (blocks_[n][p].ever_fetched != 0 && home_of_page(p) != n) ++touched;
  return touched;
}

// A shadow row of bit_ceil(nodes) bits must fit in one word.
static_assert(MachineConfig::kMaxNodes <= 64);

void CoherentMemory::fail_stale_copy(NodeId node, BlockId b,
                                     const char* where) const {
  std::ostringstream os;
  os << "coherence violation: stale local copy served at " << where
     << " (node " << node << ", block " << b
     << ", written by another node since this node's last fetch)";
  check_fail("!shadow_stale(node, b)", __FILE__, __LINE__, os.str());
}

void CoherentMemory::set_page_tables(
    std::span<const vm::PageTable* const> tables) {
  ASCOMA_CHECK(tables.size() == cfg_.nodes);
  page_tables_.assign(tables.begin(), tables.end());
}

void CoherentMemory::apply_invalidation(NodeId s, BlockId b) {
  for (std::uint32_t q = s.value() * ppn_; q < (s.value() + 1) * ppn_; ++q)
    l1_[q]->invalidate_block(b);
  rac_[s]->invalidate(b);
  // Fetched -> Invalidated; Never and Invalidated stay as they are.
  PageBlocks& pb = blocks_[s][cfg_.page_of_block(b)];
  const std::uint64_t m = block_mask(b);
  pb.invalidated |= pb.fetched & m;
  pb.fetched &= ~m;
}

void CoherentMemory::invalidate_sibling_line(std::uint32_t proc,
                                             LineId line) {
  if (ppn_ == 1) return;
  const NodeId n = node_of(proc);
  for (std::uint32_t q = n.value() * ppn_; q < (n.value() + 1) * ppn_; ++q)
    if (q != proc) l1_[q]->invalidate_line(line);
}

int CoherentMemory::sibling_with_line(std::uint32_t proc,
                                      LineId line) const {
  if (ppn_ == 1) return -1;
  const NodeId n = node_of(proc);
  for (std::uint32_t q = n.value() * ppn_; q < (n.value() + 1) * ppn_; ++q)
    if (q != proc && l1_[q]->probe(line)) return static_cast<int>(q);
  return -1;
}

// The timing steps are always inlined into access_impl: each is a few
// instructions, so a call costs about as much as the step, and access_impl
// is over gcc's inlining budget, so `inline` alone does not guarantee it.
// prof_net stays a call; it is cold outside profiled runs.
[[gnu::always_inline]] inline Cycle CoherentMemory::use_bus(NodeId n,
                                                            Cycle t) {
  if (background_) return t + cfg_.bus_occupancy;
  const Cycle r = bus_[n]->transact(t);
  prof_add(prof::Component::kBus, t, r);
  return r;
}

[[gnu::always_inline]] inline Cycle CoherentMemory::use_bus_short(NodeId n,
                                                                  Cycle t) {
  if (background_) return t + (cfg_.bus_occupancy + Cycle{1}) / 2;
  const Cycle r = bus_[n]->transact_short(t);
  prof_add(prof::Component::kBus, t, r);
  return r;
}

[[gnu::always_inline]] inline Cycle CoherentMemory::use_engine(NodeId n,
                                                               Cycle t) {
  if (background_) return t + cfg_.dsm_engine_cycles;
  const Cycle r = engine_[n].acquire_until(t, cfg_.dsm_engine_cycles);
  prof_add(prof::Component::kEngine, t, r);
  return r;
}

[[gnu::always_inline]] inline Cycle CoherentMemory::use_dram(NodeId n,
                                                             Cycle t,
                                                             BlockId b) {
  if (background_) return t + cfg_.dram_access_cycles;
  const Cycle r = dram_[n]->access(t, b);
  prof_add(prof::Component::kDram, t, r);
  return r;
}

void CoherentMemory::prof_net(Cycle t, Cycle arrival, NodeId src,
                              NodeId dst) {
  if (!prof_on_ || arrival <= t) return;
  // The uncontended pair latency is the fabric's share; anything beyond it
  // is input-port queueing (the only contention the model admits) or
  // injected jitter.
  const Cycle delta = arrival - t;
  const Cycle fabric = std::min(delta, net_.uncontended_latency(src, dst));
  probe_->add(prof::Component::kNetFabric, fabric);
  if (delta > fabric) probe_->add(prof::Component::kNetQueue, delta - fabric);
}

[[gnu::always_inline]] inline Cycle CoherentMemory::use_net(Cycle t,
                                                            NodeId src,
                                                            NodeId dst) {
  if (background_) return src == dst ? t : t + net_.min_one_way_latency();
  const Cycle r = net_.deliver(t, src, dst);
  prof_net(t, r, src, dst);
  return r;
}

Cycle CoherentMemory::invalidate_targets(NodeMask targets, BlockId block,
                                         NodeId home, NodeId requester,
                                         Cycle t_home) {
  // Invalidations proceed in parallel with the data reply, so their
  // component steps are off the requester's critical path: suspend
  // attribution and let the caller charge any excess of the ack join over
  // the data return as kInvalStall.
  const bool prof_saved = prof_on_;
  prof_on_ = false;
  if (!targets.empty())
    note_dir_event(obs::EventKind::kDirInvalidation, t_home, requester, block,
                   targets.size());
  Cycle acks = t_home;
  for (const NodeId s : targets) {
    apply_invalidation(s, block);
    const Cycle at_s = use_net(t_home, home, s);
    const Cycle e = use_engine(s, at_s);
    const Cycle done_inval = use_bus_short(s, e);
    const Cycle ack = use_net(done_inval, s, requester);
    acks = std::max(acks, ack);
  }
  prof_on_ = prof_saved;
  return acks;
}

void CoherentMemory::victim_writeback(std::uint32_t proc, LineId victim_line,
                                      Cycle now) {
  const NodeId node = node_of(proc);
  const Addr addr = cfg_.line_base(victim_line);
  const VPageId page = cfg_.page_of(addr);
  const BlockId block = cfg_.block_of(addr);
  const PageMode mode = page_tables_[node]->mode(page);
  ASCOMA_CHECK_MSG(mode != PageMode::kUnmapped,
                   "dirty victim from an unmapped page");
  // Fire-and-forget: the writeback consumes bandwidth (bus, DRAM bank,
  // network port) but does not stall the processor.
  const Cycle t = bus_[node]->transact_short(now);
  if (mode == PageMode::kHome || mode == PageMode::kScoma) {
    dram_[node]->access(t, block);
    ++wb_local_;
  } else {
    const NodeId home = home_of_page(page);
    const Cycle at_home = net_.deliver(t, node, home);
    dram_[home]->access(at_home, block);
    ++wb_remote_;
  }
}

CoherentMemory::Outcome CoherentMemory::access_impl(std::uint32_t proc,
                                                    Addr addr, bool is_store,
                                                    Cycle now) {
  ASCOMA_CHECK(proc < cfg_.total_procs());
  ASCOMA_CHECK(!page_tables_.empty());
  const NodeId node = node_of(proc);
  const LineId line = cfg_.line_of(addr);
  const BlockId block = cfg_.block_of(addr);
  const VPageId page = cfg_.page_of(addr);
  const PageMode mode = page_tables_[node]->mode(page);
  ASCOMA_CHECK_MSG(mode != PageMode::kUnmapped,
                   "access to unmapped page (kernel must fault first)");
  const NodeId home = home_of_page(page);

  Outcome o;
  mem::L1Cache& l1 = *l1_[proc];

  // ---- L1 hit paths ---------------------------------------------------------
  if (l1.probe(line)) {
    o.l1_hit = true;
    if (!is_store || dir_.owner(block) == node) {
      shadow_check_local(node, block, "L1 hit");
      if (is_store) {
        shadow_commit_store(node, block);
        l1.touch_store(line);
        invalidate_sibling_line(proc, line);  // bus snoop
      }
      o.done = now + cfg_.l1_hit_cycles;
      prof_add(prof::Component::kL1, now, o.done);
      return o;
    }
    shadow_check_local(node, block, "L1 upgrade");
    // Ownership upgrade: the line is valid locally but the node is not the
    // exclusive owner.
    o.upgrade = true;
    Cycle t = use_bus(node, now);
    t = use_engine(node, t);
    if (home != node) {
      t = use_net(t, node, home);  // request to the home
      t = use_engine(home, t);
      o.remote = true;
    }
    t += cfg_.dir_lookup_cycles;
    prof_add(prof::Component::kDirectory, Cycle{0}, cfg_.dir_lookup_cycles);
    auto gx = dir_.getx(block, node);
    ASCOMA_CHECK_MSG(!gx.forward(),
                     "valid L1 line while another node owns the block dirty");
    const Cycle acks = invalidate_targets(gx.invalidate, block, home, node, t);
    if (home != node) {
      t = use_net(t, home, node);  // ownership grant
      t = use_engine(node, t);
    }
    o.done = std::max(t, acks);
    prof_join(t, o.done);
    shadow_commit_store(node, block);
    l1.touch_store(line);
    invalidate_sibling_line(proc, line);
    return o;
  }

  // ---- L1 miss ---------------------------------------------------------------
  o.counted_miss = true;

  auto fill_l1 = [&](Cycle t) {
    const auto fr = l1.fill(line, is_store);
    if (fr.writeback) victim_writeback(proc, fr.victim, t);
    if (is_store) invalidate_sibling_line(proc, line);
  };

  auto classify_local = [&]() {
    switch (mode) {
      case PageMode::kHome: return MissSource::kHome;
      case PageMode::kScoma: return MissSource::kScoma;
      default: return MissSource::kRac;  // NUMA-mode, supplied on-node
    }
  };

  // ---- sibling cache-to-cache supply (SMP nodes) -----------------------------
  // The fast path applies only when no directory transaction is needed: any
  // load (the node already holds the data; the copyset is unchanged), or a
  // store by the exclusive owner node.  Stores that need ownership fall
  // through to the regular paths, which perform the GETX/invalidations.
  if ((!is_store || dir_.owner(block) == node) &&
      sibling_with_line(proc, line) >= 0) {
    // The bus transaction overlaps the snoop/supply; total latency is the
    // fixed cache-to-cache transfer time (>= one bus occupancy).
    shadow_check_local(node, block, "sibling supply");
    if (is_store) shadow_commit_store(node, block);
    const Cycle t = use_bus(node, now);
    o.done = std::max(t, now + cfg_.sibling_transfer_cycles);
    prof_add(prof::Component::kBus, t, o.done);  // cache-to-cache transfer
    o.source = classify_local();
    o.data_fetch = true;
    ++sibling_transfers_;
    fill_l1(o.done);
    return o;
  }

  if (mode == PageMode::kHome) {
    Cycle t = use_bus(node, now);
    t = use_engine(node, t);
    if (is_store) {
      auto gx = dir_.getx(block, node);
      if (gx.forward()) {
        // 3-hop: fetch the dirty data from its owner, invalidating it.
        t += cfg_.dir_lookup_cycles;
        prof_add(prof::Component::kDirectory, Cycle{0}, cfg_.dir_lookup_cycles);
        note_dir_event(obs::EventKind::kDirForward, t, node, block,
                       gx.dirty_owner.value());
        const Cycle at_owner = use_net(t, node, gx.dirty_owner);
        const Cycle eo = use_engine(gx.dirty_owner, at_owner);
        const Cycle data = use_dram(gx.dirty_owner, eo, block);
        apply_invalidation(gx.dirty_owner, block);
        Cycle back = use_net(data, gx.dirty_owner, node);
        back = use_engine(node, back);
        const Cycle acks =
            invalidate_targets(gx.invalidate, block, node, node, t);
        o.done = std::max(back, acks);
        prof_join(back, o.done);
        o.remote = true;
        o.source = MissSource::kCoherence;
      } else {
        const Cycle data0 = use_dram(node, t, block);
        const Cycle data = use_engine(node, data0);
        const Cycle acks =
            invalidate_targets(gx.invalidate, block, node, node, t);
        o.done = std::max(data, acks);
        prof_join(data, o.done);
        o.remote = !gx.invalidate.empty();
        o.source = MissSource::kHome;
      }
    } else {
      auto gs = dir_.gets(block, node);
      if (gs.forward()) {
        t += cfg_.dir_lookup_cycles;
        prof_add(prof::Component::kDirectory, Cycle{0}, cfg_.dir_lookup_cycles);
        note_dir_event(obs::EventKind::kDirForward, t, node, block,
                       gs.dirty_owner.value());
        const Cycle at_owner = use_net(t, node, gs.dirty_owner);
        const Cycle eo = use_engine(gs.dirty_owner, at_owner);
        const Cycle data = use_dram(gs.dirty_owner, eo, block);
        Cycle back = use_net(data, gs.dirty_owner, node);
        back = use_engine(node, back);
        o.done = back;
        o.remote = true;
        o.source = MissSource::kCoherence;
      } else {
        const Cycle data0 = use_dram(node, t, block);
        o.done = use_engine(node, data0);
        o.source = MissSource::kHome;
      }
    }
    if (is_store)
      shadow_commit_store(node, block);
    else
      shadow_fetch(node, block);
    o.data_fetch = true;
    fill_l1(o.done);
    return o;
  }

  ASCOMA_CHECK_MSG(home != node, "non-home mapping mode on the home node");

  if (mode == PageMode::kScoma &&
      block_bit(blocks_[node][page].fetched, block)) {
    if (!is_store || dir_.owner(block) == node) {
      // Supplied from the local page cache at local-memory latency.
      shadow_check_local(node, block, "scoma page cache");
      if (is_store) shadow_commit_store(node, block);
      Cycle t = use_bus(node, now);
      t = use_engine(node, t);
      t = use_dram(node, t, block);
      o.done = use_engine(node, t);
      o.source = MissSource::kScoma;
      o.data_fetch = true;
      fill_l1(o.done);
      return o;
    }
    // Store to a valid shared replica: ownership-only GETX to the home.
    shadow_check_local(node, block, "scoma ownership upgrade");
    shadow_commit_store(node, block);
    Cycle t = use_bus(node, now);
    t = use_engine(node, t);
    t = use_net(t, node, home);  // request to the home
    t = use_engine(home, t);
    t += cfg_.dir_lookup_cycles;
    prof_add(prof::Component::kDirectory, Cycle{0}, cfg_.dir_lookup_cycles);
    auto gx = dir_.getx(block, node);
    ASCOMA_CHECK_MSG(!gx.forward(),
                     "valid S-COMA block while another node owns it dirty");
    const Cycle acks = invalidate_targets(gx.invalidate, block, home, node, t);
    Cycle grant = use_net(t, home, node);
    grant = use_engine(node, grant);
    // Data comes from the local frame once ownership is granted.
    prof_join(grant, std::max(grant, acks));
    const Cycle data = use_dram(node, std::max(grant, acks), block);
    o.done = use_engine(node, data);
    o.remote = true;
    o.source = MissSource::kCoherence;
    o.data_fetch = true;
    fill_l1(o.done);
    return o;
  }

  if (mode == PageMode::kNuma && !is_store && rac_[node]->probe(block)) {
    Cycle t = use_bus(node, now);
    t = use_engine(node, t);
    o.done = t + cfg_.rac_array_cycles;
    prof_add(prof::Component::kRac, t, o.done);
    shadow_check_local(node, block, "RAC hit");
    o.source = MissSource::kRac;
    o.data_fetch = true;
    rac_[node]->note_hit();
    fill_l1(o.done);
    return o;
  }

  // ---- Remote fetch (S-COMA invalid block, or CC-NUMA RAC miss) ------------
  // The requesting node's prior knowledge of the block classifies the miss
  // (the transaction below changes none of the requester's bits for it).
  PageBlocks& pb = blocks_[node][page];
  const std::uint64_t m = block_mask(block);
  const bool prior_fetched = (pb.fetched & m) != 0;
  Cycle t = use_bus(node, now);
  t = use_engine(node, t);
  t = use_net(t, node, home);  // request to the home
  t = use_engine(home, t);
  t += cfg_.dir_lookup_cycles;
  prof_add(prof::Component::kDirectory, Cycle{0}, cfg_.dir_lookup_cycles);

  Cycle data_done;
  Cycle acks = t;
  if (is_store) {
    auto gx = dir_.getx(block, node);
    o.counted_refetch = prior_fetched;
    if (gx.forward()) {
      note_dir_event(obs::EventKind::kDirForward, t, node, block,
                     gx.dirty_owner.value());
      const Cycle at_owner = use_net(t, home, gx.dirty_owner);
      const Cycle eo = use_engine(gx.dirty_owner, at_owner);
      const Cycle data = use_dram(gx.dirty_owner, eo, block);
      apply_invalidation(gx.dirty_owner, block);
      Cycle back = use_net(data, gx.dirty_owner, node);
      data_done = use_engine(node, back);
    } else {
      const Cycle data = use_dram(home, t, block);
      Cycle back = use_net(data, home, node);
      data_done = use_engine(node, back);
    }
    acks = invalidate_targets(gx.invalidate, block, home, node, t);
  } else {
    auto gs = dir_.gets(block, node);
    o.counted_refetch = prior_fetched;
    if (gs.forward()) {
      note_dir_event(obs::EventKind::kDirForward, t, node, block,
                     gs.dirty_owner.value());
      const Cycle at_owner = use_net(t, home, gs.dirty_owner);
      const Cycle eo = use_engine(gs.dirty_owner, at_owner);
      const Cycle data = use_dram(gs.dirty_owner, eo, block);
      Cycle back = use_net(data, gs.dirty_owner, node);
      data_done = use_engine(node, back);
    } else {
      const Cycle data = use_dram(home, t, block);
      Cycle back = use_net(data, home, node);
      data_done = use_engine(node, back);
    }
  }
  o.done = std::max(data_done, acks);
  prof_join(data_done, o.done);
  o.remote = true;
  o.data_fetch = true;

  if (prior_fetched) {
    o.source = MissSource::kConfCapc;
  } else if ((pb.invalidated & m) != 0) {
    o.source = MissSource::kCoherence;
  } else {
    o.source = MissSource::kCold;
    o.induced_cold = (pb.ever_fetched & m) != 0;
  }
  o.page_refetch_count = o.counted_refetch ? refetch_.increment(page, node)
                                           : refetch_.count(page, node);

  if (is_store)
    shadow_commit_store(node, block);
  else
    shadow_fetch(node, block);
  pb.fetched |= m;
  pb.invalidated &= ~m;
  pb.ever_fetched |= m;

  // Install the arriving 4-line chunk at its destination.
  if (mode == PageMode::kScoma) {
    if (!background_) dram_[node]->access(o.done, block);  // page-cache write
  } else {
    rac_[node]->fill(block);
  }
  fill_l1(o.done);
  return o;
}

CoherentMemory::FlushOutcome CoherentMemory::flush_page(NodeId node,
                                                        VPageId page,
                                                        Cycle now) {
  ASCOMA_CHECK(node.value() < cfg_.nodes);
  const NodeId home = home_of_page(page);
  ASCOMA_CHECK(home != node);
  FlushOutcome fo;
  rac_[node]->invalidate_page(page);

  // On a remote page the node's fetched blocks are exactly its copyset
  // blocks (PageBlocks), and a valid L1 line implies copyset membership, so
  // the held mask names every block with lines or a directory entry to
  // release.  Back to Never, which also clears every S-COMA valid bit;
  // only the sticky ever-fetched bits survive (a refetch is then an induced
  // cold miss).
  PageBlocks& pb = blocks_[node][page];
  std::uint64_t held = pb.fetched;
  pb.fetched = 0;
  pb.invalidated = 0;
  const BlockId first = cfg_.first_block_of_page(page);
  const std::uint32_t q0 = node.value() * ppn_;
  for (; held != 0; held &= held - 1) {
    const BlockId b =
        first + static_cast<std::uint32_t>(std::countr_zero(held));
    for (std::uint32_t q = q0; q < q0 + ppn_; ++q) {
      const auto l1res = l1_[q]->flush_block(b);
      fo.l1_valid_lines += l1res.valid_lines;
      fo.l1_dirty_lines += l1res.dirty_lines;
    }
    dir_.flush_node(b, node);
    ++fo.blocks_released;
  }
  refetch_.reset(page, node);

  if (fo.blocks_released > 0) {
    // One batched flush/writeback notification to the home.
    const Cycle t = bus_[node]->transact_short(now);
    const Cycle at_home = net_.deliver(t, node, home);
    engine_[home].acquire(at_home, cfg_.dsm_engine_cycles);
  }
  return fo;
}

}  // namespace ascoma::proto
