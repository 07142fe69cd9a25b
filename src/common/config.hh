#pragma once

// MachineConfig gathers every architectural and policy parameter of the
// simulated machine in one place.  Defaults reproduce the paper's setup
// (Section 4.1, Tables 3 and 4); where the OCR of the paper lost a digit the
// recovered/chosen value is documented in DESIGN.md section 6.

#include <bit>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ascoma::obs {
class Probe;  // the run's observation hook (src/obs/probe.hh)
}

namespace ascoma {

/// Which of the five studied memory architectures a machine instance runs.
enum class ArchModel : std::uint8_t {
  kCcNuma,   ///< plain CC-NUMA (+ small RAC), never remaps
  kScoma,    ///< pure S-COMA: every remote page must occupy a local frame
  kRNuma,    ///< reactive NUMA: CC-NUMA-first + refetch-threshold upgrades
  kVcNuma,   ///< VC-NUMA relocation strategy + hardware thrash detection
  kAsComa,   ///< this paper: S-COMA-first + adaptive replacement back-off
};

const char* to_string(ArchModel m);

/// Parse "ccnuma" / "scoma" / "rnuma" / "vcnuma" / "ascoma" (case-insensitive).
/// Returns true on success.
bool parse_arch_model(const std::string& name, ArchModel* out);

struct MachineConfig {
  // ---- machine shape ------------------------------------------------------
  std::uint32_t nodes = 8;              ///< paper: 8 nodes (lu: 4)
  /// Processors per node (SMP-node extension; Figure 1 shows "one or more
  /// commodity microprocessors" per node).  Each processor has a private L1;
  /// the bus, RAC, DRAM, and DSM engine are shared per node, and the
  /// coherent bus snoop supplies/invalidates sibling caches.  Derived from
  /// the workload's process count by core::Machine.
  std::uint32_t procs_per_node = 1;

  std::uint32_t total_procs() const { return nodes * procs_per_node; }
  Cycles sibling_transfer_cycles{20};   ///< cache-to-cache supply over the bus

  // ---- granularities ------------------------------------------------------
  ByteCount page_bytes{4096};      ///< 4 KB pages
  ByteCount block_bytes{128};      ///< coherence/transfer unit (4 lines)
  ByteCount line_bytes{32};        ///< L1 line
  /// Cap on page_bytes / block_bytes: requester-side block state keeps one
  /// bit per block of a page in a u64 (proto::CoherentMemory).
  static constexpr std::uint32_t kMaxBlocksPerPage = 64;
  /// Cap on `nodes`: the directory keeps one sharer bit per node in a u64
  /// (proto::Directory), and the coherence shadow's row of a block fits in
  /// one word.
  static constexpr std::uint32_t kMaxNodes = 64;

  // ---- L1 cache (Table 3) -------------------------------------------------
  ByteCount l1_bytes{16 * 1024};   ///< direct-mapped, write-back
  Cycles l1_hit_cycles{1};

  // ---- RAC (Table 3): 128 B total for CC-NUMA & hybrids ------------------
  ByteCount rac_bytes{128};        ///< direct-mapped, 128 B lines;
                                        ///< 0 disables the RAC (ablation)
  Cycles rac_array_cycles{21};          ///< RAC data-array access time
                                        ///< (total RAC hit = bus+engine+array
                                        ///<  = 10+5+21 = 36, Table 4)

  // ---- buses / memory (Table 4 shape: local 50, remote 150) --------------
  Cycles bus_occupancy{10};             ///< split-transaction request+data
  std::uint32_t dram_banks = 4;         ///< power of two: bank = block & (n-1)
  Cycles dram_access_cycles{30};        ///< per-bank service time
  Cycles dsm_engine_cycles{5};          ///< controller occupancy per request
  Cycles dir_lookup_cycles{11};         ///< home directory state access
                                        ///< (min remote = 55+2*net+11 = 150)

  // ---- network (Table 3) --------------------------------------------------
  std::uint32_t switch_arity = 4;       ///< 4x4 switches
  Cycles net_fall_through{4};           ///< per-hop fall-through delay
  Cycles net_propagation{2};            ///< wire propagation per hop
  Cycles net_interface_cycles{10};      ///< NI packetize/depacketize
  Cycles net_port_occupancy{8};         ///< input-port busy time per message
                                        ///< ("port contention (only) modeled")

  // ---- kernel costs (Section 5.1: "highly optimized") ---------------------
  Cycles cost_page_fault{500};          ///< map a page (K-BASE on first touch)
  Cycles cost_interrupt{500};           ///< relocation interrupt delivery
  Cycles cost_remap{2000};              ///< unmap+flush bookkeeping+remap+TLB
  Cycles cost_flush_line{10};           ///< per valid line flushed from L1
  Cycles cost_daemon_wakeup{1000};      ///< pageout daemon context switch+setup
  Cycles cost_daemon_scan_page{20};     ///< second-chance examination per page

  // ---- processor-side costs -------------------------------------------------
  Cycles private_op_cycles{3};          ///< average private-memory op cost
  Cycles lock_op_cycles{50};            ///< lock acquire/release service time
  Cycles barrier_cycles{100};           ///< barrier release broadcast cost

  // ---- consistency model (extension) ----------------------------------------
  // The paper models sequentially-consistent blocking processors.  Setting
  // blocking_stores = false adds a store buffer (processor-consistency
  // style): store misses retire into the buffer and the processor continues;
  // it stalls only when the buffer is full.  Loads still block, and the
  // memory system's state transitions are unchanged — only the processor's
  // observed stall time differs.  This models the "latency-tolerating
  // features" direction the paper's introduction contrasts against.
  bool blocking_stores = true;
  std::uint32_t store_buffer_entries = 8;

  // ---- VM policy (Section 4.1) --------------------------------------------
  double free_min_frac = 0.01;          ///< pageout daemon low-water mark
  double free_target_frac = 0.07;       ///< pageout daemon refill target
  /// Minimum cycles between pageout-daemon invocations.  The daemon is
  /// demand-driven (free pool below free_min) but rate-limited to this
  /// period so its second-chance window is comparable to page reuse
  /// distances (a real BSD daemon runs a few times per second; at 120 MHz
  /// that is millions of cycles).
  Cycles daemon_period{2'000'000};

  // ---- hybrid relocation policy (Section 4.1) -----------------------------
  std::uint32_t refetch_threshold = 64;   ///< initial relocation threshold
  std::uint32_t threshold_increment = 32; ///< added when thrashing detected
  std::uint32_t threshold_max = 4096;     ///< beyond this remapping is disabled
  std::uint32_t vcnuma_break_even = 32;   ///< VC-NUMA break-even refetch count
  double vcnuma_eval_replacements = 2.0;  ///< evaluate after this many
                                          ///< replacements per cached page
  double daemon_backoff_factor = 2.0;     ///< AS-COMA daemon period stretch
  Cycles daemon_period_max{32'000'000};
  // Ablation switches for AS-COMA's two contributions (both on = the paper's
  // design; turning one off isolates the other's benefit).
  bool ascoma_scoma_first = true;         ///< S-COMA-preferred allocation
  bool ascoma_backoff = true;             ///< adaptive replacement back-off

  // ---- memory pressure -----------------------------------------------------
  // Fraction of each node's frames holding home pages; the page-cache size is
  // derived from it:  frames_per_node = ceil(home_pages / memory_pressure).
  double memory_pressure = 0.50;

  // ---- architecture under test --------------------------------------------
  ArchModel arch = ArchModel::kAsComa;

  // ---- observability (src/obs, src/prof) ----------------------------------
  // Non-owning: when set, the machine hands its typed, cycle-stamped events
  // (faults, remaps, daemon runs, back-off moves, directory traffic,
  // barriers), its per-node gauge samples and the latency attribution of
  // every blocking demand access to the probe, which forwards them to its
  // profiler and/or event ring.  With it null every hook skips one
  // predictable branch.  Attaching a probe never changes simulated
  // behaviour, only records it.  Not thread-safe: do not share one across
  // concurrent simulate() calls.
  obs::Probe* probe = nullptr;
  // Gauge sampling period in cycles (0 disables sampling); samples reach
  // the probe's event ring.
  Cycles sample_every{0};

  // ---- network jitter (net::Network) ----------------------------------------
  // Seeded random message delay, the one perturbation used to measure
  // run-to-run variability; the fabric itself is lossless, as in the paper.
  // Off by default, and a run without jitter makes no draw.  Each message
  // entering the fabric is delayed, with probability `fault_jitter`, by a
  // uniform 1..fault_jitter_cycles cycles drawn from a dedicated RNG stream
  // derived from the top-level `seed` (or `fault_seed` when nonzero), so a
  // jittered run replays exactly.
  double fault_jitter = 0.0;      ///< P(message delayed by random jitter)
  Cycles fault_jitter_cycles{64}; ///< max injected jitter per message
  std::uint64_t fault_seed = 0;   ///< 0 = derive from `seed` (component_seed)
  /// Cap on fault_jitter_cycles.  2^20 cycles is thousands of remote-miss
  /// latencies, and with every message of a paper-length run (well under
  /// 2^40) delayed by the cap the clock still stays below 2^64.
  static constexpr Cycles kMaxJitterCycles{std::uint64_t{1} << 20};

  // ---- misc ----------------------------------------------------------------
  /// Top-level RNG seed.  Every stochastic component derives its own stream
  /// from this one number: workload op streams consume it directly (each
  /// generator splits per-process streams via rng.hh's mix64), and fault
  /// jitter uses component_seed(kSeedStreamFault).  One seed reproduces
  /// the whole run.
  std::uint64_t seed = 0xA5C0'0A15ull;
  bool check_invariants = true;         ///< enable protocol invariant checks

  // Stream tags for component_seed().  kSeedStreamWorkload is documentary:
  // workload streams consume `seed` unmixed (the original scheme, kept so
  // recorded baselines stay valid); new stochastic components must claim a
  // tag here and derive through component_seed().
  static constexpr std::uint64_t kSeedStreamWorkload = 0;
  static constexpr std::uint64_t kSeedStreamFault = 0x464C54;  // "FLT"

  /// Seed for the component stream `tag`, derived from the top-level seed.
  std::uint64_t component_seed(std::uint64_t tag) const;

  /// The seed network jitter actually uses (`fault_seed`, or the derived
  /// fault stream of the top-level seed when unset).
  std::uint64_t effective_fault_seed() const;

  // ---- derived quantities ---------------------------------------------------
  std::uint32_t lines_per_block() const {
    return static_cast<std::uint32_t>(block_bytes / line_bytes);
  }
  std::uint32_t blocks_per_page() const {
    return static_cast<std::uint32_t>(page_bytes / block_bytes);
  }
  std::uint32_t lines_per_page() const {
    return static_cast<std::uint32_t>(page_bytes / line_bytes);
  }
  std::uint32_t l1_lines() const {
    return static_cast<std::uint32_t>(l1_bytes / line_bytes);
  }
  std::uint32_t rac_entries() const {
    return static_cast<std::uint32_t>(rac_bytes / block_bytes);
  }

  // ---- named dimension conversions ------------------------------------------
  // The *only* sanctioned paths between the address-like dimensions; new
  // conversions belong here, next to the granularities that define them.
  // validate() requires page, block and line sizes to be powers of two, so
  // the coarsening conversions shift by a log2 instead of dividing: they
  // run on every simulated access, where a 64-bit divide would sit on the
  // critical path to the page-table load.
  PageId page_of(Addr a) const { return PageId{a.value() >> page_shift()}; }
  BlockId block_of(Addr a) const {
    return BlockId{a.value() >> block_shift()};
  }
  LineAddr line_of(Addr a) const {
    return LineAddr{a.value() >> line_shift()};
  }
  PageId page_of_block(BlockId b) const {
    return PageId{b.value() >> (page_shift() - block_shift())};
  }
  PageId page_of_line(LineAddr l) const {
    return PageId{l.value() >> (page_shift() - line_shift())};
  }
  BlockId block_of_line(LineAddr l) const {
    return BlockId{l.value() >> (block_shift() - line_shift())};
  }
  BlockId first_block_of_page(PageId p) const {
    return BlockId{p.value() << (page_shift() - block_shift())};
  }
  /// Index of `b` within its page, in [0, blocks_per_page()): the block's
  /// bit in the per-page block masks (validate() caps a page at 64 blocks).
  std::uint32_t block_in_page(BlockId b) const {
    return static_cast<std::uint32_t>(
        b.value() & ((std::uint64_t{1} << (page_shift() - block_shift())) - 1));
  }
  LineAddr first_line_of_block(BlockId b) const {
    return LineAddr{b.value() * lines_per_block()};
  }
  Addr page_base(PageId p) const { return Addr{p.value() * page_bytes.value()}; }
  Addr block_base(BlockId b) const {
    return Addr{b.value() * block_bytes.value()};
  }
  Addr line_base(LineAddr l) const {
    return Addr{l.value() * line_bytes.value()};
  }

  /// log2 of each granularity (validated powers of two).
  int page_shift() const { return std::countr_zero(page_bytes.value()); }
  int block_shift() const { return std::countr_zero(block_bytes.value()); }
  int line_shift() const { return std::countr_zero(line_bytes.value()); }

  // ---- derived minimum latencies (Table 4) ---------------------------------
  /// Switch stages a message traverses (ceil(log_arity(nodes))).
  std::uint32_t net_stages() const;
  /// Uncontended one-way network latency between distinct nodes.
  Cycle net_one_way_latency() const;
  /// Minimum L1-miss latency satisfied by local DRAM (home or S-COMA page).
  Cycle min_local_latency() const {
    return bus_occupancy + 2 * dsm_engine_cycles + dram_access_cycles;
  }
  /// Minimum L1-miss latency satisfied by the RAC.
  Cycle min_rac_latency() const {
    return bus_occupancy + dsm_engine_cycles + rac_array_cycles;
  }
  /// Minimum L1-miss latency satisfied by a clean remote home (2-hop).
  Cycle min_remote_latency() const {
    return bus_occupancy + 3 * dsm_engine_cycles + dir_lookup_cycles +
           dram_access_cycles + 2 * net_one_way_latency();
  }

  /// Validates internal consistency (power-of-two granularities, divisibility,
  /// sane fractions).  Returns an empty string if OK, else a diagnostic.
  std::string validate() const;

  friend bool operator==(const MachineConfig&, const MachineConfig&) = default;
};

}  // namespace ascoma
