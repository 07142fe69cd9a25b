#include "core/canonical.hh"

#include <vector>

namespace ascoma::core {

// ---- stats ------------------------------------------------------------------

namespace {

void encode_kernel_stats(store::Encoder& e, const KernelStats& k) {
  e.u64(k.page_faults);
  e.u64(k.scoma_allocs);
  e.u64(k.numa_allocs);
  e.u64(k.upgrades);
  e.u64(k.downgrades);
  e.u64(k.relocation_interrupts);
  e.u64(k.lines_flushed);
  e.u64(k.daemon_runs);
  e.u64(k.daemon_pages_scanned);
  e.u64(k.daemon_pages_reclaimed);
  e.u64(k.daemon_reclaim_failures);
  e.u64(k.threshold_raises);
  e.u64(k.threshold_drops);
  e.u64(k.remap_suppressed);
  e.u64(k.refetch_notifications);
  e.u64(k.net_retries);
  e.u64(k.nacks);
}

void decode_kernel_stats(store::Decoder& d, KernelStats* k) {
  k->page_faults = d.u64();
  k->scoma_allocs = d.u64();
  k->numa_allocs = d.u64();
  k->upgrades = d.u64();
  k->downgrades = d.u64();
  k->relocation_interrupts = d.u64();
  k->lines_flushed = d.u64();
  k->daemon_runs = d.u64();
  k->daemon_pages_scanned = d.u64();
  k->daemon_pages_reclaimed = d.u64();
  k->daemon_reclaim_failures = d.u64();
  k->threshold_raises = d.u64();
  k->threshold_drops = d.u64();
  k->remap_suppressed = d.u64();
  k->refetch_notifications = d.u64();
  k->net_retries = d.u64();
  k->nacks = d.u64();
}

}  // namespace

void encode_node_stats(store::Encoder& e, const NodeStats& s) {
  for (const Cycle c : s.time.cycles) e.u64(c.value());
  for (const std::uint64_t m : s.misses.count) e.u64(m);
  encode_kernel_stats(e, s.kernel);
  e.u64(s.shared_loads);
  e.u64(s.shared_stores);
  e.u64(s.l1_hits);
  e.u64(s.upgrades_issued);
  e.u64(s.induced_cold_misses);
  e.u64(s.remote_pages_touched);
}

void decode_node_stats(store::Decoder& d, NodeStats* s) {
  for (Cycle& c : s->time.cycles) c = Cycle{d.u64()};
  for (std::uint64_t& m : s->misses.count) m = d.u64();
  decode_kernel_stats(d, &s->kernel);
  s->shared_loads = d.u64();
  s->shared_stores = d.u64();
  s->l1_hits = d.u64();
  s->upgrades_issued = d.u64();
  s->induced_cold_misses = d.u64();
  s->remote_pages_touched = d.u64();
}

// ---- machine identity -------------------------------------------------------

namespace {

constexpr std::uint64_t kSaltHi = 0x41'53'43'4F'4D'41'48'49ull;  // "ASCOMAHI"
constexpr std::uint64_t kSaltLo = 0x41'53'43'4F'4D'41'4C'4Full;  // "ASCOMALO"

}  // namespace

Fingerprint machine_fingerprint(const MachineConfig& cfg,
                                const std::string& workload_name,
                                std::uint64_t total_pages,
                                std::uint32_t processes) {
  store::Encoder e;
  e.u32(kCanonicalVersion);
  e.str(workload_name);
  e.u64(total_pages);
  e.u32(processes);
  // The config, field by field in declaration order (config.hh).  The
  // non-owning probe pointer is left out: attaching an observer never
  // changes results.
  e.begin_section("cfg");
  e.u32(cfg.nodes);
  e.u32(cfg.procs_per_node);
  e.u64(cfg.sibling_transfer_cycles.value());
  e.u64(cfg.page_bytes.value());
  e.u64(cfg.block_bytes.value());
  e.u64(cfg.line_bytes.value());
  e.u64(cfg.l1_bytes.value());
  e.u64(cfg.l1_hit_cycles.value());
  e.u64(cfg.rac_bytes.value());
  e.u64(cfg.rac_array_cycles.value());
  e.u64(cfg.bus_occupancy.value());
  e.u32(cfg.dram_banks);
  e.u64(cfg.dram_access_cycles.value());
  e.u64(cfg.dsm_engine_cycles.value());
  e.u64(cfg.dir_lookup_cycles.value());
  e.u32(cfg.switch_arity);
  e.u64(cfg.net_fall_through.value());
  e.u64(cfg.net_propagation.value());
  e.u64(cfg.net_interface_cycles.value());
  e.u64(cfg.net_port_occupancy.value());
  e.u64(cfg.cost_page_fault.value());
  e.u64(cfg.cost_interrupt.value());
  e.u64(cfg.cost_remap.value());
  e.u64(cfg.cost_flush_line.value());
  e.u64(cfg.cost_daemon_wakeup.value());
  e.u64(cfg.cost_daemon_scan_page.value());
  e.u64(cfg.private_op_cycles.value());
  e.u64(cfg.lock_op_cycles.value());
  e.u64(cfg.barrier_cycles.value());
  e.b(cfg.blocking_stores);
  e.u32(cfg.store_buffer_entries);
  e.f64(cfg.free_min_frac);
  e.f64(cfg.free_target_frac);
  e.u64(cfg.daemon_period.value());
  e.u32(cfg.refetch_threshold);
  e.u32(cfg.threshold_increment);
  e.u32(cfg.threshold_max);
  e.u32(cfg.vcnuma_break_even);
  e.f64(cfg.vcnuma_eval_replacements);
  e.f64(cfg.daemon_backoff_factor);
  e.u64(cfg.daemon_period_max.value());
  e.b(cfg.ascoma_scoma_first);
  e.b(cfg.ascoma_backoff);
  e.f64(cfg.memory_pressure);
  e.u8(static_cast<std::uint8_t>(cfg.arch));
  e.u64(cfg.sample_every.value());
  e.f64(cfg.fault_drop);
  e.f64(cfg.fault_dup);
  e.f64(cfg.fault_jitter);
  e.u64(cfg.fault_jitter_cycles.value());
  e.u64(cfg.fault_seed);
  e.u64(cfg.retry_timeout.value());
  e.u64(cfg.retry_backoff_base.value());
  e.u64(cfg.retry_backoff_max.value());
  e.u32(cfg.retry_max_attempts);
  e.u64(cfg.nack_busy_cycles.value());
  e.u64(cfg.watchdog_cycles.value());
  e.u64(cfg.seed);
  e.b(cfg.check_invariants);
  e.end_section();
  const std::vector<std::uint8_t>& bytes = e.bytes();
  Fingerprint fp;
  fp.hi = store::fnv1a64(bytes.data(), bytes.size(),
                         store::kFnvBasis ^ kSaltHi);
  fp.lo = store::fnv1a64(bytes.data(), bytes.size(),
                         store::kFnvBasis ^ kSaltLo);
  return fp;
}

}  // namespace ascoma::core
