#pragma once

// core::Machine — the top of the stack and the library's primary public API.
//
// A Machine instantiates the full simulated multiprocessor (nodes with L1 +
// RAC + bus + banked DRAM + DSM engine, interconnect, directory, kernel VM,
// and the architecture policy selected in MachineConfig::arch), runs one
// workload's parallel phase to completion, and returns the paper's
// measurements: the execution-time breakdown (Figures 2/3 left), the miss
// satisfaction breakdown (Figures 2/3 right), kernel/VM activity, and the
// refetch census (Tables 5/6).
//
//   MachineConfig cfg;                 // defaults reproduce the paper
//   cfg.arch = ArchModel::kAsComa;
//   cfg.memory_pressure = 0.70;
//   auto wl = workload::make_workload("em3d");
//   core::RunResult r = core::simulate(cfg, *wl);

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/policy.hh"
#include "common/annotate.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "fault/invariants.hh"
#include "obs/probe.hh"
#include "proto/coherent_memory.hh"
#include "sim/barrier.hh"
#include "sim/lock.hh"
#include "sim/scheduler.hh"
#include "vm/home_map.hh"
#include "vm/page_cache.hh"
#include "vm/page_table.hh"
#include "vm/pageout_daemon.hh"
#include "workload/workload.hh"

namespace ascoma::core {

/// Everything measured over one run.
struct RunResult {
  RunStats stats;                       ///< machine-wide totals
  /// Per-processor detail (one entry per node on the paper's 1-processor
  /// nodes).  Node-level censuses (remote_pages_touched) are attributed to
  /// each node's first processor.
  std::vector<NodeStats> per_node;
  std::vector<std::uint32_t> final_threshold;  ///< per-node refetch threshold
  std::vector<std::uint8_t> relocation_enabled;  ///< per-node, at run end
  std::uint64_t remote_page_node_pairs = 0;  ///< Σ_n distinct remote pages(n)
  std::uint64_t relocated_pairs = 0;    ///< (page,node) with refetch >= T0
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t contended_locks = 0;
  std::uint64_t barrier_episodes = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t directory_invalidations = 0;
  std::uint64_t directory_forwards = 0;
  std::uint64_t writebacks_local = 0;
  std::uint64_t writebacks_remote = 0;
  std::uint64_t faults_injected = 0;    ///< messages delayed by jitter
  bool invariants_checked = false;      ///< post-run sweep ran (and passed)
  MachineConfig config;                 ///< effective (post-derivation) config

  /// Makespan of the parallel phase.
  Cycle cycles() const { return stats.parallel_cycles; }

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

class Machine {
 public:
  /// `cfg.nodes` is overridden by the workload's node count; granularities
  /// must match the workload.  Throws CheckFailure on invalid configuration.
  Machine(MachineConfig cfg, const workload::Workload& workload);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Run the workload's parallel phase to completion.  Callable once.
  RunResult run();

  // --- component access (tests/diagnostics) --------------------------------
  proto::CoherentMemory& memory() { return *cmem_; }
  const MachineConfig& config() const { return cfg_; }
  vm::PageTable& page_table(NodeId n) { return *page_tables_[n]; }
  vm::PageCache& page_cache(NodeId n) { return *page_caches_[n]; }
  arch::Policy& policy(NodeId n) { return *policies_[n]; }
  std::uint64_t frames_per_node() const { return frames_per_node_; }

  /// Full-state coherence sweep (directory vs. caches vs. VM).  run()
  /// invokes it when cfg.check_invariants is set and fails on violations;
  /// callable directly for diagnostics or after planting state in tests.
  fault::InvariantReport invariant_report() const;

  /// Node hosting processor `proc` (identity when procs_per_node == 1).
  /// The paper's machine skips the divide.  The test reads smp_ rather than
  /// procs_per_node, or the compiler folds `ppn == 1 ? proc : proc / ppn`
  /// back into the divide.
  NodeId node_of(std::uint32_t proc) const {
    return NodeId{smp_ ? proc / cfg_.procs_per_node : proc};
  }

 private:
  class Evictor;

  arch::PolicyEnv env(std::uint32_t proc, Cycle now);

  /// Map a faulting remote page on `proc`'s node; returns kernel cycles
  /// spent, split into (base, overhead).
  ASCOMA_HOT_PATH std::pair<Cycle, Cycle> handle_fault(std::uint32_t proc,
                                                       VPageId page, Cycle now);

  /// CC-NUMA -> S-COMA upgrade attempt; returns kernel overhead cycles.
  ASCOMA_HOT_PATH Cycle handle_relocation(std::uint32_t proc, VPageId page,
                                          Cycle now);

  /// Evict one S-COMA page (flush, downgrade/unmap, release frame).
  /// Returns the kernel cycles the eviction costs.
  ASCOMA_HOT_PATH Cycle evict_scoma_page(std::uint32_t proc, VPageId victim,
                                         Cycle now);

  /// Pick an eviction victim with one second-chance pass (forced: returns a
  /// page even if all are referenced).
  ASCOMA_HOT_PATH VPageId force_select_victim(NodeId node);

  /// Periodic / on-demand pageout daemon; returns kernel cycles spent.
  /// Reached only through maybe_run_daemon's gate, which never passes on a
  /// node whose policy does not run the daemon.
  ASCOMA_HOT_PATH Cycle run_daemon(std::uint32_t proc, Cycle now);

  /// Rate-limited daemon trigger: runs the daemon only if the node's pool is
  /// below free_min and at least one daemon period has elapsed since the
  /// last invocation.  Returns kernel cycles spent (0 if it did not run).
  Cycle maybe_run_daemon(std::uint32_t proc, Cycle now);

  void execute_op(std::uint32_t p, const Op& op);
  void release_barrier(Cycle release);

  /// Hand an event to the probe if one is attached (no-op otherwise).
  ASCOMA_HOT_PATH void note(obs::EventKind kind, Cycle cycle, NodeId node,
                            VPageId page = kInvalidPage, std::uint64_t a = 0,
                            std::uint64_t b = 0, std::uint64_t c = 0) {
    if (probe_) probe_->event(kind, cycle, node, page, a, b, c);
  }

  /// Record one gauge sample per node, stamped `cycle`.
  ASCOMA_HOT_PATH void take_samples(Cycle cycle);

  MachineConfig cfg_;
  const workload::Workload& wl_;
  const bool smp_;  ///< procs_per_node > 1
  std::uint64_t frames_per_node_ = 0;

  vm::HomeMap homes_;
  IdVector<NodeId, std::unique_ptr<vm::PageTable>> page_tables_;
  IdVector<NodeId, std::unique_ptr<vm::PageCache>> page_caches_;
  IdVector<NodeId, std::unique_ptr<vm::PageoutDaemon>> daemons_;
  IdVector<NodeId, std::unique_ptr<arch::Policy>> policies_;
  std::unique_ptr<proto::CoherentMemory> cmem_;

  sim::Scheduler sched_;
  sim::Barrier barrier_;
  sim::LockTable locks_;

  std::vector<std::unique_ptr<workload::OpStream>> streams_;
  std::vector<NodeStats> node_stats_;
  /// Per-processor store-buffer entries (completion cycle per slot); only
  /// used when cfg_.blocking_stores is false.
  std::vector<std::vector<Cycle>> store_buffer_;
  IdVector<NodeId, Cycle> daemon_period_;
  IdVector<NodeId, Cycle> next_daemon_;
  /// The event loop's one-compare daemon test: next_daemon_ on nodes whose
  /// policy runs the pageout daemon, kNeverCycle on the rest.
  IdVector<NodeId, Cycle> daemon_gate_;
  std::vector<std::uint8_t> waiting_in_barrier_;
  obs::Probe* probe_ = nullptr;  ///< non-owning; null = observation off
  obs::Sampler sampler_;
  bool ran_ = false;
  Cycle end_cycle_{0};  ///< max completion cycle seen so far
};

/// One-shot convenience wrapper.
RunResult simulate(const MachineConfig& cfg, const workload::Workload& wl);

}  // namespace ascoma::core
