#include "drives.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "arch/policy.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/rac.hh"
#include "net/network.hh"
#include "proto/coherent_memory.hh"
#include "proto/directory.hh"
#include "sim/scheduler.hh"
#include "vm/home_map.hh"
#include "vm/page_cache.hh"
#include "vm/page_table.hh"
#include "vm/pageout_daemon.hh"
#include "workload/workload.hh"

namespace simbench {

/// Keeps results of timed calls observable so no loop can be elided
/// (external linkage: the compiler cannot prove it is never read).
std::uint64_t g_sink = 0;

namespace {

using namespace ascoma;  // NOLINT: drive code names many library types

// A drive repeats passes until it has timed at least kMinTimedNs, with at
// least kMinPasses and at most kMaxPasses passes, and reports the median.
constexpr std::uint64_t kMinTimedNs = 40'000'000;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 200;
// Recorded accesses per program: a contiguous window of each process's
// shared accesses, starting a quarter of the way into its stream.
constexpr std::uint64_t kWindowAccesses = std::uint64_t{1} << 18;

struct Access {
  std::uint32_t proc;
  NodeId node;  ///< requester
  NodeId home;
  PageId page;
  BlockId block;
  LineAddr line;
  Addr addr;
  bool store;
  bool remote() const { return node != home; }
};

/// One program's recorded inputs, with the configuration of the first job
/// that runs it (shape derived from the workload as core::Machine does).
struct Recording {
  MachineConfig cfg;
  std::unique_ptr<workload::Workload> wl;
  std::unique_ptr<vm::HomeMap> homes;
  std::vector<Access> accesses;  ///< interleaved round-robin across procs
  std::uint64_t ops = 0;         ///< whole-stream op count, kEnd excluded
  std::uint32_t capacity = 0;    ///< node 0's page-cache frames
  std::uint32_t free_min = 0;
  std::uint32_t free_target = 0;
};

struct Timed {
  std::uint64_t ops = 0;
  std::uint64_t ns = 0;
};

/// Per-drive accumulator across programs: Σ median-pass ns and Σ ops.
struct Rate {
  double ns = 0.0;
  double ops = 0.0;
  double per_op() const { return ops == 0.0 ? 0.0 : ns / ops; }
};

template <class Pass>
void time_passes(Rate& rate, Pass pass) {
  std::vector<double> per_op;
  std::uint64_t timed = 0;
  std::uint64_t ops = 0;
  while (per_op.size() < kMinPasses ||
         (timed < kMinTimedNs && per_op.size() < kMaxPasses)) {
    const Timed t = pass();
    if (t.ops == 0) return;  // nothing to replay for this program
    ops = t.ops;
    per_op.push_back(static_cast<double>(t.ns) / static_cast<double>(t.ops));
    timed += t.ns;
  }
  std::sort(per_op.begin(), per_op.end());
  const std::size_t n = per_op.size();
  const double median = n % 2 == 1
                            ? per_op[n / 2]
                            : (per_op[n / 2 - 1] + per_op[n / 2]) / 2.0;
  rate.ns += median * static_cast<double>(ops);
  rate.ops += static_cast<double>(ops);
}

// ---- recording -------------------------------------------------------------

Timed generate(const Recording& rec, std::uint64_t seed,
               std::vector<std::uint64_t>* accesses_per_proc) {
  Timed t;
  std::uint64_t sum = 0;
  for (std::uint32_t p = 0; p < rec.cfg.total_procs(); ++p) {
    std::uint64_t accesses = 0;
    std::unique_ptr<workload::OpStream> s;
    const std::uint64_t t0 = now_ns();
    s = rec.wl->stream(p, seed);
    for (Op op = s->next(); op.kind != OpKind::kEnd; op = s->next()) {
      ++t.ops;
      sum += op.arg;
      accesses += op.kind == OpKind::kLoad || op.kind == OpKind::kStore;
    }
    t.ns += now_ns() - t0;
    if (accesses_per_proc != nullptr) accesses_per_proc->push_back(accesses);
  }
  g_sink += sum;
  return t;
}

void record_window(Recording& rec, std::uint64_t seed,
                   const std::vector<std::uint64_t>& accesses_per_proc) {
  const MachineConfig& cfg = rec.cfg;
  const std::uint32_t procs = cfg.total_procs();
  const std::uint64_t per_proc = kWindowAccesses / procs;
  std::vector<std::vector<Access>> window(procs);
  for (std::uint32_t p = 0; p < procs; ++p) {
    const std::uint64_t skip = accesses_per_proc[p] / 4;
    auto s = rec.wl->stream(p, seed);
    std::uint64_t seen = 0;
    for (Op op = s->next();
         op.kind != OpKind::kEnd && window[p].size() < per_proc;
         op = s->next()) {
      if (op.kind != OpKind::kLoad && op.kind != OpKind::kStore) continue;
      if (seen++ < skip) continue;
      const Addr addr{op.arg};
      const PageId page = cfg.page_of(addr);
      window[p].push_back(Access{p, NodeId{p / cfg.procs_per_node},
                                 rec.homes->home_of(page), page,
                                 cfg.block_of(addr), cfg.line_of(addr), addr,
                                 op.kind == OpKind::kStore});
    }
  }
  for (std::uint64_t i = 0; i < per_proc; ++i)
    for (std::uint32_t p = 0; p < procs; ++p)
      if (i < window[p].size()) rec.accesses.push_back(window[p][i]);
}

Recording record(const ascoma::core::SweepJob& job, Rate& gen,
                 Tracer& tracer) {
  Recording rec;
  rec.wl = workload::make_workload(job.workload, job.workload_scale);
  if (rec.wl == nullptr)
    throw std::runtime_error("unknown program " + job.workload);
  rec.cfg = job.config;
  rec.cfg.nodes = rec.wl->nodes();
  rec.cfg.procs_per_node = rec.wl->processes() / rec.wl->nodes();
  rec.homes = std::make_unique<vm::HomeMap>(rec.wl->total_pages(),
                                            rec.cfg.nodes);
  for (PageId p{0}; p.value() < rec.wl->total_pages(); ++p)
    rec.homes->claim(p, rec.wl->home_of(p));

  // Page-cache geometry of node 0, as core::Machine derives it.
  const auto frames = static_cast<std::uint64_t>(std::ceil(
      static_cast<double>(rec.homes->max_home_pages()) /
      rec.cfg.memory_pressure));
  rec.capacity = static_cast<std::uint32_t>(
      frames - rec.homes->home_pages(NodeId{0}));
  auto free_min = static_cast<std::uint32_t>(static_cast<double>(frames) *
                                             rec.cfg.free_min_frac);
  auto free_target = static_cast<std::uint32_t>(static_cast<double>(frames) *
                                                rec.cfg.free_target_frac);
  const std::uint32_t target_cap =
      std::max<std::uint32_t>(rec.capacity == 0 ? 0 : 1, rec.capacity * 2 / 3);
  rec.free_target = std::min(std::max<std::uint32_t>(free_target, 1),
                             target_cap);
  rec.free_min = std::min(std::max<std::uint32_t>(free_min, 1),
                          rec.free_target);

  const std::uint64_t wl_seed =
      rec.cfg.component_seed(MachineConfig::kSeedStreamWorkload);
  std::vector<std::uint64_t> accesses_per_proc;
  {
    const Tracer::Span span(tracer, "drive.workload.gen");
    bool first = true;
    time_passes(gen, [&] {
      const Timed t =
          generate(rec, wl_seed, first ? &accesses_per_proc : nullptr);
      if (first) rec.ops = t.ops;
      first = false;
      return t;
    });
  }
  {
    const Tracer::Span span(tracer, "drive.record");
    record_window(rec, wl_seed, accesses_per_proc);
  }
  return rec;
}

// ---- layer drives ----------------------------------------------------------

Timed drive_net(const Recording& rec) {
  net::Network net(rec.cfg);
  Timed t;
  Cycle now{0};
  const std::uint64_t t0 = now_ns();
  for (const Access& a : rec.accesses) {
    if (!a.remote()) continue;
    const auto req = net.try_deliver(now, a.node, a.home);
    const auto reply =
        net.try_deliver(req.arrival + rec.cfg.dir_lookup_cycles, a.home, a.node);
    g_sink += reply.arrival.value();
    t.ops += 2;
    now += Cycle{16};
  }
  t.ns = now_ns() - t0;
  return t;
}

Timed drive_dir(const Recording& rec) {
  proto::Directory dir(rec.wl->total_pages() * rec.cfg.blocks_per_page(),
                       rec.cfg.nodes);
  Timed t;
  const std::uint64_t t0 = now_ns();
  for (const Access& a : rec.accesses) {
    if (a.store)
      g_sink += dir.getx(a.block, a.node).invalidate.bits();
    else
      g_sink += dir.gets(a.block, a.node).actions;
    ++t.ops;
  }
  t.ns = now_ns() - t0;
  return t;
}

/// Node page tables with every recorded page pre-mapped: home pages as home;
/// remote pages, for the S-COMA-first architectures, S-COMA while the node
/// has page-cache frames (node 0's count), CC-NUMA otherwise.
std::vector<std::unique_ptr<vm::PageTable>> premapped_tables(
    const Recording& rec) {
  const MachineConfig& cfg = rec.cfg;
  const bool scoma_first = cfg.arch == ArchModel::kScoma ||
                           cfg.arch == ArchModel::kAsComa;
  std::vector<std::unique_ptr<vm::PageTable>> tables;
  std::vector<std::uint32_t> frames_used(cfg.nodes, 0);
  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    tables.push_back(std::make_unique<vm::PageTable>(rec.wl->total_pages()));
    for (PageId p{0}; p.value() < rec.wl->total_pages(); ++p)
      if (rec.homes->home_of(p) == NodeId{n}) tables[n]->map_home(p);
  }
  for (const Access& a : rec.accesses) {
    vm::PageTable& pt = *tables[a.node.value()];
    if (pt.mode(a.page) != PageMode::kUnmapped) continue;
    std::uint32_t& used = frames_used[a.node.value()];
    if (scoma_first && used < rec.capacity)
      pt.map_scoma(a.page, FrameId{used++});
    else
      pt.map_numa(a.page);
  }
  return tables;
}

Timed drive_access(const Recording& rec) {
  const auto tables = premapped_tables(rec);
  std::vector<const vm::PageTable*> ptrs;
  for (const auto& t : tables) ptrs.push_back(t.get());
  proto::CoherentMemory cm(rec.cfg, *rec.homes);
  cm.set_page_tables(ptrs);
  std::vector<Cycle> clock(rec.cfg.total_procs(), Cycle{0});
  Timed t;
  const std::uint64_t t0 = now_ns();
  for (const Access& a : rec.accesses) {
    const auto o = cm.access(a.proc, a.addr, a.store, clock[a.proc]);
    clock[a.proc] = o.done + Cycle{1};
    ++t.ops;
  }
  t.ns = now_ns() - t0;
  g_sink += clock[0].value();
  return t;
}

Timed drive_l1(const Recording& rec) {
  std::vector<mem::L1Cache> l1(rec.cfg.total_procs(), mem::L1Cache(rec.cfg));
  Timed t;
  const std::uint64_t t0 = now_ns();
  for (const Access& a : rec.accesses) {
    mem::L1Cache& c = l1[a.proc];
    if (!c.probe(a.line))
      g_sink += c.fill(a.line, a.store).writeback;
    else if (a.store)
      c.touch_store(a.line);
    ++t.ops;
  }
  t.ns = now_ns() - t0;
  return t;
}

Timed drive_rac(const Recording& rec) {
  std::vector<mem::Rac> rac(rec.cfg.nodes, mem::Rac(rec.cfg));
  Timed t;
  const std::uint64_t t0 = now_ns();
  for (const Access& a : rec.accesses) {
    if (!a.remote()) continue;
    mem::Rac& r = rac[a.node.value()];
    if (r.probe(a.block))
      r.note_hit();
    else
      r.fill(a.block);
    ++t.ops;
  }
  t.ns = now_ns() - t0;
  g_sink += rac[0].hits();
  return t;
}

Timed drive_dram(const Recording& rec) {
  std::vector<mem::Dram> dram(rec.cfg.nodes, mem::Dram(rec.cfg));
  Timed t;
  Cycle now{0};
  const std::uint64_t t0 = now_ns();
  for (const Access& a : rec.accesses) {
    g_sink += dram[a.home.value()].access(now, a.block).value();
    now += Cycle{8};
    ++t.ops;
  }
  t.ns = now_ns() - t0;
  return t;
}

Timed drive_bus(const Recording& rec) {
  std::vector<mem::Bus> bus(rec.cfg.nodes, mem::Bus(rec.cfg));
  Timed t;
  Cycle now{0};
  const std::uint64_t t0 = now_ns();
  for (const Access& a : rec.accesses) {
    g_sink += bus[a.node.value()].transact(now).value();
    now += Cycle{8};
    ++t.ops;
  }
  t.ns = now_ns() - t0;
  return t;
}

Timed drive_page_cache(const Recording& rec) {
  if (rec.capacity == 0) return {};
  // Untimed: each node's remote page references, repeats of the node's
  // previous page folded away.
  std::vector<std::pair<std::uint32_t, PageId>> refs;
  std::vector<PageId> last(rec.cfg.nodes, kInvalidPage);
  for (const Access& a : rec.accesses) {
    if (!a.remote() || last[a.node.value()] == a.page) continue;
    last[a.node.value()] = a.page;
    refs.emplace_back(a.node.value(), a.page);
  }
  const std::uint64_t pages = rec.wl->total_pages();
  std::vector<vm::PageCache> caches(rec.cfg.nodes, vm::PageCache(rec.capacity));
  std::vector<std::vector<FrameId>> frame_of(
      rec.cfg.nodes, std::vector<FrameId>(pages, kInvalidFrame));
  for (vm::PageCache& c : caches) c.reserve_pages(pages);
  Timed t;
  const std::uint64_t t0 = now_ns();
  for (const auto& [node, page] : refs) {
    vm::PageCache& c = caches[node];
    if (c.is_active(page)) continue;
    std::vector<FrameId>& frames = frame_of[node];
    auto f = c.alloc();
    if (!f) {
      const auto victim = c.rotate();
      c.remove_active(*victim);
      c.release(frames[victim->value()]);
      f = c.alloc();
    }
    frames[page.value()] = *f;
    c.add_active(page);
    ++t.ops;
  }
  t.ns = now_ns() - t0;
  return t;
}

/// The daemon's eviction callback, doing the VM half of a downgrade.
class Downgrader final : public vm::EvictionHandler {
 public:
  Downgrader(vm::PageCache& cache, vm::PageTable& pt)
      : cache_(cache), pt_(pt) {}
  bool evict(PageId page) override {
    cache_.remove_active(page);
    cache_.release(pt_.downgrade_to_numa(page));
    return true;
  }

 private:
  vm::PageCache& cache_;
  vm::PageTable& pt_;
};

Timed drive_daemon(const Recording& rec) {
  if (rec.capacity == 0) return {};
  // Node 0's page cache filled with its remote pages; the pages node 0
  // touched in the recorded window carry the reference bit.
  const std::uint64_t pages = rec.wl->total_pages();
  vm::PageCache cache(rec.capacity);
  cache.reserve_pages(pages);
  vm::PageTable pt(pages);
  std::vector<std::uint8_t> touched(pages, 0);
  for (const Access& a : rec.accesses)
    if (a.node == NodeId{0}) touched[a.page.value()] = 1;
  for (PageId p{0}; p.value() < pages && cache.free_frames() > 0; ++p) {
    if (rec.homes->home_of(p) == NodeId{0}) continue;
    pt.map_scoma(p, *cache.alloc());
    cache.add_active(p);
    if (touched[p.value()] != 0) pt.set_ref_bit(p);
  }
  vm::PageoutDaemon daemon(rec.free_min, rec.free_target);
  Downgrader handler(cache, pt);
  const std::uint64_t t0 = now_ns();
  const vm::DaemonResult r = daemon.run(cache, pt, handler);
  Timed t;
  t.ns = now_ns() - t0;
  t.ops = r.scanned;
  return t;
}

Timed drive_policy(const Recording& rec, ArchModel arch) {
  MachineConfig cfg = rec.cfg;
  cfg.arch = arch;
  const std::uint64_t pages = rec.wl->total_pages();
  std::vector<std::unique_ptr<arch::Policy>> policies;
  std::vector<vm::PageCache> caches(cfg.nodes, vm::PageCache(rec.capacity));
  std::vector<KernelStats> kernel(cfg.nodes);
  std::vector<Cycle> period(cfg.nodes, cfg.daemon_period);
  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    policies.push_back(arch::make_policy(cfg));
    policies.back()->reserve_pages(pages);
  }
  // Per-(page, node) refetch counts, as the directory would report them.
  std::vector<std::uint32_t> refetches(pages * cfg.nodes, 0);
  Timed t;
  Cycle now{0};
  const std::uint64_t t0 = now_ns();
  for (const Access& a : rec.accesses) {
    if (!a.remote()) continue;
    const std::uint32_t n = a.node.value();
    arch::PolicyEnv env{cfg,       a.node,    caches[n], kernel[n],
                        period[n], now,       nullptr};
    std::uint32_t& count = refetches[a.page.value() * cfg.nodes + n];
    if (policies[n]->should_relocate(env, a.page, ++count)) count = 0;
    policies[n]->on_page_cache_hit(a.page);
    now += Cycle{16};
    t.ops += 2;
  }
  t.ns = now_ns() - t0;
  return t;
}

Timed drive_pick(const Recording& rec) {
  sim::Scheduler sched(rec.cfg.total_procs());
  Timed t;
  const std::uint64_t t0 = now_ns();
  for (const Access& a : rec.accesses) {
    const sim::ProcId p = sched.pick();
    sched.set_ready(p, sched.ready_at(p) + Cycle{1 + a.line.value() % 61});
    ++t.ops;
  }
  t.ns = now_ns() - t0;
  g_sink += sched.ready_at(0).value();
  return t;
}

}  // namespace

DriveResult run_drives(const BenchWorkload& w, Tracer& tracer) {
  // One recording per program, configured by the first of its jobs at the
  // highest memory pressure: the smallest page cache, so the VM drives
  // replay evictions.
  std::map<std::string, std::size_t> config_job;
  std::map<std::string, std::set<ArchModel>> archs;
  std::vector<std::string> programs;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const std::string& prog = w.jobs[i].workload;
    const auto [it, added] = config_job.emplace(prog, i);
    if (added)
      programs.push_back(prog);
    else if (w.jobs[i].config.memory_pressure >
             w.jobs[it->second].config.memory_pressure)
      it->second = i;
    archs[prog].insert(w.jobs[i].config.arch);
  }

  Rate gen, net, dir, access, l1, rac, dram, bus, page_cache, daemon, policy,
      pick;
  DriveResult out;
  const Tracer::Span root(tracer, "drives");
  for (const std::string& prog : programs) {
    const Recording rec = record(w.jobs[config_job[prog]], gen, tracer);
    for (const auto& job : w.jobs)
      if (job.workload == prog) out.job_ops += rec.ops;
    const auto drive = [&](const char* span, Rate& rate, auto fn) {
      const Tracer::Span s(tracer, span);
      time_passes(rate, [&] { return fn(rec); });
    };
    drive("drive.net.deliver", net, drive_net);
    drive("drive.proto.dir", dir, drive_dir);
    drive("drive.proto.access", access, drive_access);
    drive("drive.mem.l1", l1, drive_l1);
    drive("drive.mem.rac", rac, drive_rac);
    drive("drive.mem.dram", dram, drive_dram);
    drive("drive.mem.bus", bus, drive_bus);
    drive("drive.vm.page_cache", page_cache, drive_page_cache);
    drive("drive.vm.daemon", daemon, drive_daemon);
    for (const ArchModel arch : archs[prog])
      drive("drive.arch.policy", policy,
            [arch](const Recording& r) { return drive_policy(r, arch); });
    drive("drive.sim.pick", pick, drive_pick);
  }
  out.ns_per_op = {{"gen_ns_per_op", gen.per_op()},
                   {"deliver_ns", net.per_op()},
                   {"dir_ns", dir.per_op()},
                   {"access_ns", access.per_op()},
                   {"l1_ns", l1.per_op()},
                   {"rac_ns", rac.per_op()},
                   {"dram_ns", dram.per_op()},
                   {"bus_ns", bus.per_op()},
                   {"page_cache_ns", page_cache.per_op()},
                   {"daemon_ns_per_page", daemon.per_op()},
                   {"policy_ns", policy.per_op()},
                   {"pick_ns", pick.per_op()}};
  return out;
}

}  // namespace simbench
