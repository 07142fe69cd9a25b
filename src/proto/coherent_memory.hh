#pragma once

// CoherentMemory composes the whole hardware memory system of the machine:
// per-processor L1s, and per-node RAC, bus, banked DRAM and DSM-engine
// occupancy, the global interconnect, the directory, and the refetch
// counters.  It executes one shared-memory access at a time (processors
// block on misses — one outstanding miss, as in the paper) and returns both
// the completion cycle and the paper's classification of where the miss was
// satisfied.
//
// SMP nodes (procs_per_node > 1): each processor has a private L1; the
// node's coherent bus snoop supplies lines cache-to-cache between siblings
// and invalidates sibling copies on stores.  Directory state is node-
// granular, exactly as in the paper's Figure 1.
//
// The *kernel* (page faults, remapping, the pageout daemon) lives above this
// layer in core::Machine; CoherentMemory only requires that the accessed
// page already be mapped on the requesting node and reads the mapping from
// the node's PageTable.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "fault/plan.hh"
#include "fault/watchdog.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/rac.hh"
#include "net/network.hh"
#include "obs/probe.hh"
#include "proto/directory.hh"
#include "proto/refetch.hh"
#include "sim/resource.hh"
#include "vm/home_map.hh"
#include "vm/page_table.hh"

namespace ascoma::proto {

class CoherentMemory {
 public:
  CoherentMemory(const MachineConfig& cfg, const vm::HomeMap& homes);

  /// The machine must register the per-node page tables before any access.
  void set_page_tables(std::span<const vm::PageTable* const> tables);

  /// Attach the run's probe (nullptr detaches); the network shares it.
  /// Directory invalidation rounds, 3-hop dirty-owner forwards, and
  /// recovery traffic (injected faults, NACKs, retries, watchdog trips) are
  /// reported as events.  While a bracketed demand access is in flight, the
  /// timing helpers attribute every cycle they add to the critical path to
  /// its Component; background (store-buffer) transactions and accesses
  /// outside a bracket record nothing.  Observation never changes timing.
  void set_probe(obs::Probe* probe) {
    probe_ = probe;
    net_.set_probe(probe);
  }

  struct Outcome {
    Cycle done{0};          ///< completion cycle of the access
    bool l1_hit = false;     ///< satisfied entirely by the processor's L1
    bool counted_miss = false;  ///< contributes to the miss breakdown
    MissSource source = MissSource::kHome;  ///< valid when counted_miss
    bool remote = false;     ///< a network round trip occurred
    bool data_fetch = false; ///< data moved (vs. ownership-only upgrade)
    bool upgrade = false;    ///< L1-valid ownership upgrade (GETX, no data)
    bool induced_cold = false;  ///< cold miss re-created by a page flush
    bool counted_refetch = false;  ///< directory incremented the counter
    std::uint32_t page_refetch_count = 0;  ///< post-access counter value
    std::uint32_t retries = 0;  ///< request retransmissions after drops
    std::uint32_t nacks = 0;    ///< NACKs received from overloaded homes
  };

  /// Execute one load/store by processor `proc` to byte address `addr` at
  /// `now`.  With one processor per node (the paper's machine), `proc` and
  /// node id coincide.
  ///
  /// `background` models store-buffer drains (blocking_stores = false):
  /// state transitions are identical, but the transaction uses uncontended
  /// path latencies and reserves no foreground resources — approximating
  /// hardware that prioritizes demand loads over buffered stores.
  ASCOMA_HOT_PATH Outcome access(std::uint32_t proc, Addr addr, bool is_store,
                                 Cycle now, bool background = false);

  struct FlushOutcome {
    std::uint32_t l1_valid_lines = 0;  ///< lines flushed across node L1s
    std::uint32_t l1_dirty_lines = 0;
    std::uint32_t blocks_released = 0;  ///< directory copyset entries cleared
  };

  /// Flush every trace of `page` from node `node`'s caches (all processors)
  /// and release its directory presence (the hardware half of a page
  /// remap/eviction).  `page` must be homed on another node.  One batched
  /// flush message to the home is charged on the network when the node held
  /// any block.
  FlushOutcome flush_page(NodeId node, VPageId page, Cycle now);

  // --- component access (tests, stats, benches) ----------------------------
  mem::L1Cache& l1(std::uint32_t proc) { return *l1_[proc]; }
  const mem::L1Cache& l1(std::uint32_t proc) const { return *l1_[proc]; }
  mem::Rac& rac(NodeId n) { return *rac_[n]; }
  const mem::Rac& rac(NodeId n) const { return *rac_[n]; }
  mem::Dram& dram(NodeId n) { return *dram_[n]; }
  mem::Bus& bus(NodeId n) { return *bus_[n]; }
  net::Network& network() { return net_; }
  const net::Network& network() const { return net_; }
  Directory& directory() { return dir_; }
  RefetchTable& refetch() { return refetch_; }
  const Directory& directory() const { return dir_; }
  const RefetchTable& refetch() const { return refetch_; }
  fault::FaultPlan& fault_plan() { return plan_; }
  const fault::FaultPlan& fault_plan() const { return plan_; }
  fault::Watchdog& watchdog() { return watchdog_; }
  const fault::Watchdog& watchdog() const { return watchdog_; }

  std::uint64_t writebacks_local() const { return wb_local_; }
  std::uint64_t writebacks_remote() const { return wb_remote_; }
  std::uint64_t sibling_transfers() const { return sibling_transfers_; }
  std::uint64_t net_retries() const { return net_retries_; }
  std::uint64_t nacks_received() const { return nacks_; }

  // --- requester-side state (invariant checker, tests) ----------------------
  /// One (node, page)'s requester-side block state: bit i describes block
  /// first_block_of_page(page) + i.  `fetched` and `invalidated` are the
  /// block's touch state, Fetched or Invalidated (neither: Never, not
  /// fetched since the last flush of the page); they are never both set.
  /// For a page homed on another node, a `fetched` bit is set exactly when
  /// the node is in the block's directory copyset: the remote-fetch path is
  /// the only way in, and an invalidation or a page flush the only ways
  /// out.  fault::check_coherence_invariants checks both directions.
  ///
  /// A block's S-COMA valid bit is not stored: it is the `fetched` bit of a
  /// page mapped kScoma (scoma_valid()).  A fetch into an S-COMA page sets
  /// `fetched`, an invalidation clears it, and the kernel flushes the page
  /// (clearing every `fetched` bit) before each upgrade, downgrade and
  /// unmap, so no bit fetched in one mode survives into another.
  struct PageBlocks {
    std::uint64_t fetched;       ///< holds a copy fetched from the home
    std::uint64_t invalidated;   ///< fetched, then invalidated by the home
    std::uint64_t ever_fetched;  ///< sticky (induced-cold classification)
  };
  const PageBlocks& page_blocks(NodeId n, VPageId p) const {
    return blocks_[n][p];
  }
  /// The S-COMA valid blocks of (`n`, `p`): the fetched blocks of a page
  /// mapped kScoma, none otherwise.
  std::uint64_t scoma_valid(NodeId n, VPageId p) const {
    const std::uint64_t fetched = blocks_[n][p].fetched;
    // A fetched bit means an access ran, so the page tables are registered.
    return fetched != 0 && page_tables_[n]->mode(p) == PageMode::kScoma
               ? fetched
               : 0;
  }
  bool block_fetched(NodeId n, BlockId b) const {
    return block_bit(blocks_[n][cfg_.page_of_block(b)].fetched, b);
  }
  const MachineConfig& config() const { return cfg_; }
  NodeId home_of_page(VPageId p) const { return homes_.home_of(p); }

  /// Distinct remote pages this node has ever accessed (Table 5 census):
  /// the remote pages with a non-zero `ever_fetched` mask.  A node's first
  /// access to a remote page is always a remote fetch, since its L1, RAC
  /// and S-COMA frame hold nothing of the page before one.
  std::uint64_t remote_pages_touched(NodeId n) const;

  /// Identity on 1-processor nodes; smp_ keeps the compiler from folding
  /// the test back into the divide (see core::Machine::node_of).
  NodeId node_of(std::uint32_t proc) const {
    return NodeId{smp_ ? proc / ppn_ : proc};
  }

  /// The coherence shadow (check_invariants) holds `node`'s copy of `b`
  /// stale: another node stored to `b` since `node` last fetched it.
  /// Always false with the shadow off.
  bool shadow_stale(NodeId node, BlockId b) const {
    if (stale_copies_.empty()) return false;
    const std::uint64_t pos = shadow_row(b) + node.value();
    return ((stale_copies_[pos >> 6] >> (pos & 63)) & 1u) != 0;
  }

 private:
  /// `b`'s bit of a PageBlocks mask.
  std::uint64_t block_mask(BlockId b) const {
    return std::uint64_t{1} << cfg_.block_in_page(b);
  }
  bool block_bit(std::uint64_t mask, BlockId b) const {
    return (mask & block_mask(b)) != 0;
  }

  /// Apply an invalidation of `b` at node `s` (state only, no timing):
  /// every processor L1 on the node, the RAC, and the fetched bit (the
  /// S-COMA valid bit of an S-COMA page).
  void apply_invalidation(NodeId s, BlockId b);

  /// Invalidate `line` in the L1s of `proc`'s siblings (bus snoop on store).
  void invalidate_sibling_line(std::uint32_t proc, LineId line);

  /// First sibling of `proc` holding `line` valid, or -1.
  int sibling_with_line(std::uint32_t proc, LineId line) const;

  /// Invalidate `block` at each target node (state + timing), starting when
  /// the home has the request at `t_home`.  Returns the cycle at which all
  /// acks have reached the requester.
  Cycle invalidate_targets(NodeMask targets, BlockId block, NodeId home,
                           NodeId requester, Cycle t_home);

  /// Writeback of a dirty victim line evicted by an L1 fill (fire & forget).
  void victim_writeback(std::uint32_t proc, LineId victim_line, Cycle now);

  /// Body of access(); the public wrapper arms the watchdog and folds the
  /// per-transaction retry/NACK counts into the Outcome.
  Outcome access_impl(std::uint32_t proc, Addr addr, bool is_store, Cycle now);

  // Timing steps that honour background mode (no reservations, minimum
  // latencies) for store-buffer drains.
  Cycle use_bus(NodeId n, Cycle t);
  Cycle use_bus_short(NodeId n, Cycle t);
  Cycle use_engine(NodeId n, Cycle t);
  Cycle use_dram(NodeId n, Cycle t, BlockId b);
  Cycle use_net(Cycle t, NodeId src, NodeId dst);

  /// Reliable request from `src` to `dst`'s DSM engine: network-level
  /// retransmission on drops plus NACK/backoff retry while the engine is
  /// overloaded (or the fault plan forces a NACK).  Returns the cycle at
  /// which the engine has accepted the request.
  Cycle request_engine(NodeId src, NodeId dst, BlockId block, Cycle t);

  /// Fail the run if the armed transaction has exceeded the watchdog bound
  /// at `now`; the thrown WatchdogError carries a dump of in-flight
  /// protocol state (directory entry, engine backlogs, input ports).
  void check_watchdog(Cycle now);

  /// Protocol-state dump for watchdog trips and retry-budget failures.
  std::string dump_in_flight_state(Cycle now) const;

  /// Cold failure for an exhausted retry budget (`what` = "request"/"NACK");
  /// builds the message and in-flight dump off the hot retry loops.
  [[noreturn]] void throw_retry_exhausted(const char* what,
                                          const char* dst_label, NodeId src,
                                          NodeId dst, Cycle now) const;

  /// Emit a directory-traffic event for `block` on behalf of `requester`.
  void note_dir_event(obs::EventKind kind, Cycle cycle, NodeId requester,
                      BlockId block, std::uint64_t arg) {
    if (!probe_) return;
    probe_->event(kind, cycle, requester, cfg_.page_of_block(block),
                  block.value(), arg);
  }

  /// Attribute `to - from` critical-path cycles to `c` when recording is on.
  void prof_add(prof::Component c, Cycle from, Cycle to) {
    if (prof_on_ && to > from) probe_->add(c, to - from);
  }
  /// Excess of an ack/grant join over the data path (`kInvalStall`).
  void prof_join(Cycle data_path, Cycle joined) {
    prof_add(prof::Component::kInvalStall, data_path, joined);
  }
  /// Split one delivery into kNetFabric (uncontended share) and kNetQueue.
  void prof_net(Cycle t, Cycle arrival, NodeId src, NodeId dst);

  bool background_ = false;
  obs::Probe* probe_ = nullptr;  // non-owning
  bool prof_on_ = false;  ///< recording armed for the access in flight

  const MachineConfig cfg_;
  const vm::HomeMap& homes_;
  const std::uint32_t ppn_;
  const bool smp_;  ///< ppn_ > 1
  IdVector<NodeId, const vm::PageTable*> page_tables_;

  std::vector<std::unique_ptr<mem::L1Cache>> l1_;   // per processor
  IdVector<NodeId, std::unique_ptr<mem::Rac>> rac_;    // per node
  IdVector<NodeId, std::unique_ptr<mem::Dram>> dram_;  // per node
  IdVector<NodeId, std::unique_ptr<mem::Bus>> bus_;    // per node
  IdVector<NodeId, sim::Resource> engine_;              // per node
  fault::FaultPlan plan_;
  fault::Watchdog watchdog_;
  net::Network net_;
  Directory dir_;
  RefetchTable refetch_;

  // Requester-side block state, one PageBlocks per (node, page), in one
  // vector per node (one large table would be re-faulted on every run).
  IdVector<NodeId, IdVector<VPageId, PageBlocks>> blocks_;

  std::uint64_t wb_local_ = 0;
  std::uint64_t wb_remote_ = 0;
  std::uint64_t sibling_transfers_ = 0;
  std::uint64_t net_retries_ = 0;  ///< request retransmissions (all procs)
  std::uint64_t nacks_ = 0;        ///< NACKs received (all procs)
  std::uint32_t cur_retries_ = 0;  ///< scratch: retries of the access in flight
  std::uint32_t cur_nacks_ = 0;    ///< scratch: NACKs of the access in flight

  // ---- functional coherence shadow (check_invariants) ----------------------
  // One row per block of the nodes whose copy is stale: a committed store
  // by node X marks every other node stale, and a fetch by node Y clears
  // Y's bit.  Any access satisfied from node-local state must find its
  // node's bit clear — a missed invalidation anywhere shows up as a stale
  // hit immediately.  A row is W = bit_ceil(nodes) bits (node n at bit n),
  // packed 64 / W rows to a word, so a row never straddles two words.
  /// Bit position of `b`'s row in the packed shadow.
  std::uint64_t shadow_row(BlockId b) const {
    return b.value() << shadow_row_log2_;
  }
  void shadow_commit_store(NodeId node, BlockId b);
  void shadow_fetch(NodeId node, BlockId b);
  void shadow_check_local(NodeId node, BlockId b, const char* where) const {
    if (shadow_stale(node, b)) fail_stale_copy(node, b, where);
  }
  /// Cold failure of shadow_check_local: builds the diagnostic and throws
  /// CheckFailure.
  [[noreturn]] void fail_stale_copy(NodeId node, BlockId b,
                                    const char* where) const;
  std::uint32_t shadow_row_log2_ = 0;  ///< log2(W)
  std::vector<std::uint64_t> stale_copies_;
};

}  // namespace ascoma::proto
