#include "core/machine.hh"

#include <algorithm>

#include "common/check.hh"

namespace ascoma::core {

namespace {

std::uint64_t div_ceil(std::uint64_t a, double b) {
  return static_cast<std::uint64_t>(static_cast<double>(a) / b + 0.999999);
}

}  // namespace

// Adapts Machine::evict_scoma_page to the pageout daemon's handler interface,
// accumulating the kernel cycles evictions cost.  `proc` is the processor on
// whose behalf the daemon runs (its node owns the pages; its stats pay).
class Machine::Evictor final : public vm::EvictionHandler {
 public:
  Evictor(Machine* m, std::uint32_t proc, Cycle now, Cycle* cost)
      : m_(m), proc_(proc), now_(now), cost_(cost) {}
  bool evict(VPageId page) override {
    *cost_ += m_->evict_scoma_page(proc_, page, now_ + *cost_);
    return true;
  }

 private:
  Machine* m_;
  std::uint32_t proc_;
  Cycle now_;
  Cycle* cost_;
};

Machine::Machine(MachineConfig cfg, const workload::Workload& workload)
    : cfg_([&] {
        cfg.nodes = workload.nodes();
        ASCOMA_CHECK_MSG(workload.processes() % workload.nodes() == 0,
                         "process count must be a multiple of node count");
        cfg.procs_per_node = workload.processes() / workload.nodes();
        return cfg;
      }()),
      wl_(workload),
      smp_(cfg_.procs_per_node > 1),
      homes_(workload.total_pages(), workload.nodes()),
      sched_(cfg_.total_procs()),
      barrier_(cfg_.total_procs(), cfg_.barrier_cycles),
      locks_(cfg_.lock_op_cycles) {
  const std::string err = cfg_.validate();
  ASCOMA_CHECK_MSG(err.empty(), "invalid MachineConfig: " << err);
  ASCOMA_CHECK_MSG(cfg_.page_bytes == wl_.page_bytes() &&
                       cfg_.line_bytes == wl_.line_bytes(),
                   "workload/config granularity mismatch");

  // Home assignment: the workload's declared layout (equivalent to the
  // paper's capped first-touch for these SPMD programs).
  const std::uint64_t pages = homes_.total_pages();
  for (VPageId p{0}; p.value() < pages; ++p) homes_.claim(p, wl_.home_of(p));

  // Memory pressure P => each node has ceil(home_pages / P) frames, of which
  // the home pages are pinned and the remainder forms the page cache.
  frames_per_node_ = div_ceil(homes_.max_home_pages(), cfg_.memory_pressure);

  cmem_ = std::make_unique<proto::CoherentMemory>(cfg_, homes_);

  std::vector<const vm::PageTable*> table_ptrs;
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n) {
    page_tables_.push_back(std::make_unique<vm::PageTable>(pages));
    const std::uint64_t home_n = homes_.home_pages(n);
    ASCOMA_CHECK_MSG(frames_per_node_ >= home_n,
                     "memory pressure leaves no room for home pages");
    const auto capacity =
        static_cast<std::uint32_t>(frames_per_node_ - home_n);
    page_caches_.push_back(std::make_unique<vm::PageCache>(capacity));
    page_caches_.back()->reserve_pages(pages);

    auto free_min = static_cast<std::uint32_t>(
        static_cast<double>(frames_per_node_) * cfg_.free_min_frac);
    auto free_target = static_cast<std::uint32_t>(
        static_cast<double>(frames_per_node_) * cfg_.free_target_frac);
    // Keep the watermarks meaningful for small page caches.
    const std::uint32_t target_cap = std::max<std::uint32_t>(
        capacity == 0 ? 0 : 1, capacity * 2 / 3);
    free_target = std::min(std::max<std::uint32_t>(free_target, 1),
                           target_cap);
    free_min = std::min(std::max<std::uint32_t>(free_min, 1), free_target);
    if (capacity == 0) {
      free_min = 0;
      free_target = 0;
    }
    daemons_.push_back(
        std::make_unique<vm::PageoutDaemon>(free_min, free_target));

    policies_.push_back(arch::make_policy(cfg_));
    policies_.back()->reserve_pages(pages);
    if (cfg_.arch == ArchModel::kScoma) {
      ASCOMA_CHECK_MSG(capacity >= 1,
                       "pure S-COMA needs at least one page-cache frame");
    }

    table_ptrs.push_back(page_tables_[n].get());
  }
  // Home pages are mapped up front (before the measured parallel phase).
  for (VPageId p{0}; p.value() < pages; ++p)
    page_tables_[homes_.home_of(p)]->map_home(p);
  cmem_->set_page_tables(table_ptrs);

  probe_ = cfg_.probe;
  sampler_ = obs::Sampler(cfg_.sample_every);
  cmem_->set_probe(probe_);

  node_stats_.assign(cfg_.total_procs(), NodeStats{});
  if (!cfg_.blocking_stores) {
    store_buffer_.assign(cfg_.total_procs(),
                         std::vector<Cycle>(cfg_.store_buffer_entries,
                                            Cycle{0}));
  }
  daemon_period_.assign(cfg_.nodes, cfg_.daemon_period);
  next_daemon_.assign(cfg_.nodes, cfg_.daemon_period);
  daemon_gate_.assign(cfg_.nodes, kNeverCycle);
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n)
    if (policies_[n]->runs_daemon()) daemon_gate_[n] = next_daemon_[n];
  waiting_in_barrier_.assign(cfg_.total_procs(), 0);
}

Machine::~Machine() = default;

void Machine::take_samples(Cycle cycle) {
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n) {
    obs::Sample s;
    s.cycle = cycle;
    s.node = n;
    s.free_frames = page_caches_[n]->free_frames();
    s.threshold = policies_[n]->threshold();
    s.cache_active = page_caches_[n]->active_pages();
    for (std::uint32_t p = n.value() * cfg_.procs_per_node;
         p < (n.value() + 1) * cfg_.procs_per_node; ++p)
      s.remote_misses += node_stats_[p].misses.remote();
    probe_->sample(s);
  }
}

arch::PolicyEnv Machine::env(std::uint32_t proc, Cycle now) {
  const NodeId n = node_of(proc);
  return arch::PolicyEnv{cfg_,
                         n,
                         *page_caches_[n],
                         node_stats_[proc].kernel,
                         daemon_period_[n],
                         now,
                         probe_};
}

VPageId Machine::force_select_victim(NodeId node) {
  vm::PageCache& cache = *page_caches_[node];
  vm::PageTable& pt = *page_tables_[node];
  ASCOMA_CHECK_MSG(cache.active_pages() > 0, "no S-COMA page to evict");
  std::optional<VPageId> fallback;
  const std::uint32_t limit = 2 * cache.active_pages();
  for (std::uint32_t i = 0; i < limit; ++i) {
    const auto cand = cache.rotate();
    if (!cand) break;
    if (!fallback) fallback = *cand;
    if (pt.ref_bit(*cand)) {
      pt.clear_ref_bit(*cand);
      continue;
    }
    return *cand;
  }
  return *fallback;  // every page is hot: replace the oldest anyway
}

Cycle Machine::evict_scoma_page(std::uint32_t proc, VPageId victim,
                                Cycle now) {
  const NodeId node = node_of(proc);
  vm::PageTable& pt = *page_tables_[node];
  vm::PageCache& cache = *page_caches_[node];
  KernelStats& k = node_stats_[proc].kernel;

  const auto fo = cmem_->flush_page(node, victim, now);
  const Cycle cost =
      cfg_.cost_remap + fo.l1_valid_lines * cfg_.cost_flush_line;
  k.lines_flushed += fo.l1_valid_lines;

  FrameId frame;
  if (cfg_.arch == ArchModel::kScoma) {
    // Pure S-COMA has no CC-NUMA mode to fall back to: fully unmap, the
    // next touch faults again.
    frame = pt.frame(victim);
    pt.unmap(victim);
  } else {
    frame = pt.downgrade_to_numa(victim);
  }
  cache.remove_active(victim);
  cache.release(frame);
  ++k.downgrades;
  note(obs::EventKind::kDowngrade, now + cost, node, victim);

  auto e = env(proc, now + cost);
  policies_[node]->on_replacement(e, victim);
  return cost;
}

std::pair<Cycle, Cycle> Machine::handle_fault(std::uint32_t proc,
                                              VPageId page, Cycle now) {
  const NodeId node = node_of(proc);
  vm::PageTable& pt = *page_tables_[node];
  vm::PageCache& cache = *page_caches_[node];
  KernelStats& k = node_stats_[proc].kernel;
  ASCOMA_CHECK_MSG(homes_.home_of(page) != node,
                   "home pages are premapped; fault must be remote");

  auto e = env(proc, now);
  const PageMode mode = policies_[node]->initial_mode(e);
  const Cycle base = cfg_.cost_page_fault;
  Cycle overhead{0};

  note(obs::EventKind::kPageFault, now, node, page);
  if (mode == PageMode::kNuma) {
    pt.map_numa(page);
    ++k.numa_allocs;
    note(obs::EventKind::kNumaAlloc, now + base, node, page);
  } else {
    auto frame = cache.alloc();
    if (!frame) {
      // Mandatory replacement (pure S-COMA at drained pool).
      const VPageId victim = force_select_victim(node);
      overhead += evict_scoma_page(proc, victim, now + base);
      frame = cache.alloc();
      ASCOMA_CHECK(frame.has_value());
    }
    pt.map_scoma(page, *frame);
    cache.add_active(page);
    ++k.scoma_allocs;
    note(obs::EventKind::kScomaAlloc, now + base + overhead, node, page);
  }
  ++k.page_faults;
  return {base, overhead};
}

Cycle Machine::run_daemon(std::uint32_t proc, Cycle now) {
  const NodeId node = node_of(proc);
  vm::PageCache& cache = *page_caches_[node];
  vm::PageTable& pt = *page_tables_[node];
  KernelStats& k = node_stats_[proc].kernel;

  ++k.daemon_runs;
  Cycle cost = cfg_.cost_daemon_wakeup;
  Evictor handler(this, proc, now, &cost);
  const vm::DaemonResult r = daemons_[node]->run(cache, pt, handler);
  cost += r.scanned * cfg_.cost_daemon_scan_page;
  k.daemon_pages_scanned += r.scanned;
  k.daemon_pages_reclaimed += r.reclaimed;
  if (!r.met_target) ++k.daemon_reclaim_failures;
  note(obs::EventKind::kDaemonRun, now, node, kInvalidPage, r.scanned,
       r.reclaimed, r.met_target ? 1 : 0);

  auto e = env(proc, now + cost);
  policies_[node]->on_daemon_result(e, r);
  return cost;
}

Cycle Machine::maybe_run_daemon(std::uint32_t proc, Cycle now) {
  const NodeId node = node_of(proc);
  if (now < daemon_gate_[node]) return Cycle{0};
  const Cycle cost = daemons_[node]->should_run(*page_caches_[node])
                         ? run_daemon(proc, now)
                         : Cycle{0};
  next_daemon_[node] = now + cost + daemon_period_[node];
  daemon_gate_[node] = next_daemon_[node];
  return cost;
}

Cycle Machine::handle_relocation(std::uint32_t proc, VPageId page,
                                 Cycle now) {
  const NodeId node = node_of(proc);
  vm::PageTable& pt = *page_tables_[node];
  vm::PageCache& cache = *page_caches_[node];
  KernelStats& k = node_stats_[proc].kernel;

  ++k.relocation_interrupts;
  note(obs::EventKind::kRelocInterrupt, now, node, page);
  Cycle cost = cfg_.cost_interrupt;

  auto frame = cache.alloc();
  if (!frame) {
    // On-demand reclamation, rate-limited: if the daemon ran too recently
    // the pool stays empty and the remap is suppressed (AS-COMA) or a
    // victim is forced (R-NUMA/VC-NUMA).
    cost += maybe_run_daemon(proc, now + cost);
    frame = cache.alloc();
  }
  if (!frame) {
    if (policies_[node]->force_eviction_on_upgrade() &&
        cache.active_pages() > 0) {
      const VPageId victim = force_select_victim(node);
      cost += evict_scoma_page(proc, victim, now + cost);
      frame = cache.alloc();
      ASCOMA_CHECK(frame.has_value());
    } else {
      // AS-COMA under back-off: leave the page in CC-NUMA mode.  The
      // directory counter resets with the fired interrupt, so the page must
      // re-earn a (possibly raised) threshold before interrupting again.
      ++k.remap_suppressed;
      note(obs::EventKind::kRemapSuppressed, now + cost, node, page);
      cmem_->refetch().reset(page, node);
      auto e = env(proc, now + cost);
      policies_[node]->on_remap_suppressed(e);
      return cost;
    }
  }

  // Upgrade: the page's current cached contents must be flushed (the source
  // of the induced cold misses the paper highlights).
  const auto fo = cmem_->flush_page(node, page, now + cost);
  cost += cfg_.cost_remap + fo.l1_valid_lines * cfg_.cost_flush_line;
  k.lines_flushed += fo.l1_valid_lines;

  pt.upgrade_to_scoma(page, *frame);
  cache.add_active(page);
  ++k.upgrades;
  note(obs::EventKind::kUpgrade, now + cost, node, page);
  return cost;
}

void Machine::release_barrier(Cycle release) {
  // Barrier episodes are machine-global; they ride on node 0's track.
  note(obs::EventKind::kBarrierRelease, release, NodeId{0}, kInvalidPage,
       barrier_.episodes());
  for (std::uint32_t q = 0; q < cfg_.total_procs(); ++q) {
    if (!waiting_in_barrier_[q]) continue;
    waiting_in_barrier_[q] = 0;
    node_stats_[q].time[TimeBucket::kSync] +=
        release - barrier_.arrival_of(q);
    sched_.set_ready(q, release);
  }
}

void Machine::execute_op(std::uint32_t p, const Op& op) {
  const NodeId node = node_of(p);
  const Cycle now = sched_.ready_at(p);
  NodeStats& s = node_stats_[p];

  switch (op.kind) {
    case OpKind::kCompute:
      s.time[TimeBucket::kUserInstr] += Cycle{op.arg};
      sched_.set_ready(p, now + Cycle{op.arg});
      return;

    case OpKind::kPrivate: {
      const Cycle c = op.arg * cfg_.private_op_cycles;
      s.time[TimeBucket::kUserLocal] += c;
      sched_.set_ready(p, now + c);
      return;
    }

    case OpKind::kLoad:
    case OpKind::kStore: {
      const bool is_store = op.kind == OpKind::kStore;
      const Addr addr{op.arg};
      const VPageId page = cfg_.page_of(addr);
      ASCOMA_CHECK(page.value() < homes_.total_pages());
      if (is_store)
        ++s.shared_stores;
      else
        ++s.shared_loads;

      vm::PageTable& pt = *page_tables_[node];
      // Profile every blocking demand access; store-buffer drains are
      // background traffic and stay out of the latency histograms.
      const bool buffered_store = is_store && !cfg_.blocking_stores;
      const bool profiled =
          probe_ != nullptr && probe_->profiler() && !buffered_store;
      if (profiled) probe_->begin_access(now);
      Cycle t = now;
      if (pt.mode(page) == PageMode::kUnmapped) {
        const auto [base, ovhd] = handle_fault(p, page, t);
        s.time[TimeBucket::kKernelBase] += base;
        s.time[TimeBucket::kKernelOvhd] += ovhd;
        if (profiled) {
          probe_->add(prof::Component::kVmFault, base);
          probe_->add(prof::Component::kVmKernel, ovhd);
        }
        t += base + ovhd;
      }
      if (pt.mode(page) == PageMode::kScoma) pt.set_ref_bit(page);

      const auto o = cmem_->access(p, addr, is_store, t, buffered_store);
      Cycle ready;
      if (buffered_store && !(o.l1_hit && !o.remote)) {
        // Retire into the store buffer: the memory transaction proceeds in
        // the background; the processor stalls only while the buffer is
        // full.  (Processor-consistency extension; see MachineConfig.)
        auto& sb = store_buffer_[p];
        auto slot = std::min_element(sb.begin(), sb.end());
        const Cycle issue = std::max(t, *slot);
        *slot = std::max(o.done, issue);
        const Cycle stall = (issue - t) + cfg_.l1_hit_cycles;
        s.time[TimeBucket::kUserShared] += stall;
        ready = t + stall;
      } else {
        s.time[TimeBucket::kUserShared] += o.done - t;
        ready = o.done;
      }

      s.kernel.net_retries += o.retries;
      s.kernel.nacks += o.nacks;
      if (o.counted_miss) {
        ++s.misses[o.source];
        if (o.induced_cold) ++s.induced_cold_misses;
        if (o.source == MissSource::kScoma)
          policies_[node]->on_page_cache_hit(page);
      } else {
        ++s.l1_hits;
        if (o.remote) ++s.upgrades_issued;
      }

      bool relocated = false;
      if (o.counted_refetch && pt.mode(page) == PageMode::kNuma) {
        auto e = env(p, ready);
        if (policies_[node]->should_relocate(e, page,
                                             o.page_refetch_count)) {
          ++s.kernel.refetch_notifications;
          const Cycle c = handle_relocation(p, page, ready);
          s.time[TimeBucket::kKernelOvhd] += c;
          if (profiled) probe_->add(prof::Component::kVmKernel, c);
          ready += c;
          relocated = true;
        }
      }
      if (profiled) {
        prof::AccessClass cls;
        if (relocated) {
          cls = prof::AccessClass::kUpgradeRefetch;
        } else if (o.l1_hit) {
          cls = o.upgrade ? prof::AccessClass::kOwnership
                          : prof::AccessClass::kL1Hit;
        } else {
          switch (o.source) {
            case MissSource::kHome:
              cls = prof::AccessClass::kLocalHome;
              break;
            case MissSource::kScoma:
              cls = prof::AccessClass::kScomaHit;
              break;
            case MissSource::kRac:
              cls = prof::AccessClass::kRacHit;
              break;
            case MissSource::kCold:
              cls = prof::AccessClass::kRemoteCold;
              break;
            case MissSource::kCoherence:
              cls = prof::AccessClass::kRemoteCoherence;
              break;
            case MissSource::kConfCapc:
            default:
              cls = prof::AccessClass::kRemoteRefetch;
              break;
          }
        }
        probe_->end_access(cls, page, ready - now, o.remote,
                           o.counted_refetch);
      }
      sched_.set_ready(p, ready);
      return;
    }

    case OpKind::kBarrier: {
      const auto release = barrier_.arrive(p, now);
      if (release) {
        release_barrier(*release);
        s.time[TimeBucket::kSync] += *release - now;
        sched_.set_ready(p, *release);
      } else {
        waiting_in_barrier_[p] = 1;
        sched_.block(p);
      }
      return;
    }

    case OpKind::kLock: {
      const auto grant = locks_.acquire(op.arg, p, now);
      if (grant) {
        s.time[TimeBucket::kSync] += *grant - now;
        sched_.set_ready(p, *grant);
      } else {
        sched_.block(p);  // resumed by the holder's unlock
      }
      return;
    }

    case OpKind::kUnlock: {
      const auto grant = locks_.release(op.arg, p, now);
      s.time[TimeBucket::kSync] += cfg_.lock_op_cycles;
      sched_.set_ready(p, now + cfg_.lock_op_cycles);
      if (grant) {
        node_stats_[grant->proc].time[TimeBucket::kSync] +=
            grant->grant_cycle - grant->enqueue_cycle;
        sched_.set_ready(grant->proc, grant->grant_cycle);
      }
      return;
    }

    case OpKind::kEnd: {
      sched_.finish(p);
      const auto release = barrier_.depart(p, now);
      if (release) release_barrier(*release);
      return;
    }
  }
  ASCOMA_CHECK_MSG(false, "unhandled op kind");
}

RunResult Machine::run() {
  ASCOMA_CHECK_MSG(!ran_, "Machine::run() is single-shot");
  ran_ = true;
  prof::Profiler* const profiler = probe_ ? probe_->profiler() : nullptr;
  if (profiler)
    profiler->set_meta(wl_.name(), to_string(cfg_.arch),
                       cfg_.memory_pressure, cfg_.seed);

  // Workloads receive the workload stream of the top-level seed (the
  // identity mapping, by definition) and split per-proc internally; the
  // fault layer draws from its own component_seed stream.
  const std::uint64_t wl_seed =
      cfg_.component_seed(MachineConfig::kSeedStreamWorkload);
  for (std::uint32_t p = 0; p < cfg_.total_procs(); ++p)
    streams_.push_back(wl_.stream(p, wl_seed));

  while (!sched_.all_done()) {
    const std::uint32_t p = sched_.pick();
    const Cycle now = sched_.ready_at(p);

    // Gauge sampling: the global clock (min ready cycle) just crossed a
    // sample boundary.  One catch-up sample per crossing, stamped at the
    // boundary the clock passed.
    if (probe_ != nullptr && sampler_.due(now)) {
      take_samples(sampler_.boundary());
      sampler_.advance(now);
    }

    // Demand-driven, rate-limited pageout-daemon tick for this node.  The
    // gate is one compare; only a crossing pays for the daemon's checks.
    if (now >= daemon_gate_[node_of(p)]) {
      if (const Cycle c = maybe_run_daemon(p, now); c > Cycle{0}) {
        node_stats_[p].time[TimeBucket::kKernelOvhd] += c;
        sched_.set_ready(p, now + c);
        continue;
      }
    }

    execute_op(p, streams_[p]->next());
    if (sched_.is_done(p)) end_cycle_ = std::max(end_cycle_, now);
  }

  bool invariants_checked = false;
  if (cfg_.check_invariants) {
    const fault::InvariantReport rep = invariant_report();
    ASCOMA_CHECK_MSG(rep.ok(), rep.to_string());
    invariants_checked = true;
  }

  // Close the time series with the end-of-run state so the last row of the
  // metrics export agrees with RunResult::final_threshold and friends.
  if (probe_ != nullptr && sampler_.enabled())
    take_samples(end_cycle_);
  if (profiler) profiler->set_run_cycles(end_cycle_);

  RunResult r;
  r.config = cfg_;
  r.per_node = node_stats_;  // one entry per processor
  for (std::uint32_t p = 0; p < cfg_.total_procs(); ++p) {
    // Node-level censuses are attributed to the node's first processor so
    // machine-wide sums remain correct.
    if (p % cfg_.procs_per_node == 0) {
      const std::uint64_t touched = cmem_->remote_pages_touched(node_of(p));
      r.per_node[p].remote_pages_touched = touched;
      r.remote_page_node_pairs += touched;
    }
    r.stats.totals.add(r.per_node[p]);
  }
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n) {
    r.final_threshold.push_back(policies_[n]->threshold());
    r.relocation_enabled.push_back(policies_[n]->relocation_enabled() ? 1
                                                                      : 0);
  }
  r.stats.parallel_cycles = end_cycle_;
  r.stats.nodes = cfg_.nodes;
  r.stats.frames_per_node = frames_per_node_;
  r.stats.home_pages_per_node = homes_.max_home_pages();
  r.stats.memory_pressure = cfg_.memory_pressure;
  r.relocated_pairs = cmem_->refetch().pairs_at_least(cfg_.refetch_threshold);
  r.lock_acquisitions = locks_.acquisitions();
  r.contended_locks = locks_.contended_acquisitions();
  r.barrier_episodes = barrier_.episodes();
  r.net_messages = cmem_->network().messages();
  r.directory_invalidations = cmem_->directory().invalidations_sent();
  r.directory_forwards = cmem_->directory().forwards();
  r.writebacks_local = cmem_->writebacks_local();
  r.writebacks_remote = cmem_->writebacks_remote();
  r.net_retransmits = cmem_->network().retransmits();
  r.net_retries = cmem_->net_retries();
  r.nacks = cmem_->nacks_received();
  r.faults_injected = cmem_->fault_plan().injected();
  r.invariants_checked = invariants_checked;
  return r;
}

fault::InvariantReport Machine::invariant_report() const {
  std::vector<const vm::PageTable*> tables;
  std::vector<const vm::PageCache*> caches;
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n) {
    tables.push_back(page_tables_[n].get());
    caches.push_back(page_caches_[n].get());
  }
  return fault::check_coherence_invariants(*cmem_, tables, caches);
}

RunResult simulate(const MachineConfig& cfg, const workload::Workload& wl) {
  Machine m(cfg, wl);
  return m.run();
}

}  // namespace ascoma::core
