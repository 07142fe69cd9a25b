#include "core/canonical.hh"

#include <vector>

namespace ascoma::core {

// ---- MachineConfig ----------------------------------------------------------
// Field order is declaration order in config.hh.  The non-owning sink and
// profiler pointers are excluded: attaching observers never changes results.

void encode_config(store::Encoder& e, const MachineConfig& c) {
  e.begin_section("cfg");
  e.u32(c.nodes);
  e.u32(c.procs_per_node);
  e.u64(c.sibling_transfer_cycles.value());
  e.u64(c.page_bytes.value());
  e.u64(c.block_bytes.value());
  e.u64(c.line_bytes.value());
  e.u64(c.l1_bytes.value());
  e.u64(c.l1_hit_cycles.value());
  e.u64(c.rac_bytes.value());
  e.u64(c.rac_array_cycles.value());
  e.u64(c.bus_occupancy.value());
  e.u32(c.dram_banks);
  e.u64(c.dram_access_cycles.value());
  e.u64(c.dsm_engine_cycles.value());
  e.u64(c.dir_lookup_cycles.value());
  e.u32(c.switch_arity);
  e.u64(c.net_fall_through.value());
  e.u64(c.net_propagation.value());
  e.u64(c.net_interface_cycles.value());
  e.u64(c.net_port_occupancy.value());
  e.u64(c.cost_page_fault.value());
  e.u64(c.cost_interrupt.value());
  e.u64(c.cost_remap.value());
  e.u64(c.cost_flush_line.value());
  e.u64(c.cost_daemon_wakeup.value());
  e.u64(c.cost_daemon_scan_page.value());
  e.u64(c.private_op_cycles.value());
  e.u64(c.lock_op_cycles.value());
  e.u64(c.barrier_cycles.value());
  e.b(c.blocking_stores);
  e.u32(c.store_buffer_entries);
  e.f64(c.free_min_frac);
  e.f64(c.free_target_frac);
  e.u64(c.daemon_period.value());
  e.u32(c.refetch_threshold);
  e.u32(c.threshold_increment);
  e.u32(c.threshold_max);
  e.u32(c.vcnuma_break_even);
  e.f64(c.vcnuma_eval_replacements);
  e.f64(c.daemon_backoff_factor);
  e.u64(c.daemon_period_max.value());
  e.b(c.ascoma_scoma_first);
  e.b(c.ascoma_backoff);
  e.f64(c.memory_pressure);
  e.u8(static_cast<std::uint8_t>(c.arch));
  e.u64(c.sample_every.value());
  e.f64(c.fault_drop);
  e.f64(c.fault_dup);
  e.f64(c.fault_jitter);
  e.u64(c.fault_jitter_cycles.value());
  e.u64(c.fault_seed);
  e.u64(c.retry_timeout.value());
  e.u64(c.retry_backoff_base.value());
  e.u64(c.retry_backoff_max.value());
  e.u32(c.retry_max_attempts);
  e.u64(c.nack_busy_cycles.value());
  e.u64(c.watchdog_cycles.value());
  e.u64(c.seed);
  e.b(c.check_invariants);
  e.end_section();
}

void decode_config(store::Decoder& d, MachineConfig* c) {
  d.begin_section("cfg");
  c->nodes = d.u32();
  c->procs_per_node = d.u32();
  c->sibling_transfer_cycles = Cycles{d.u64()};
  c->page_bytes = ByteCount{d.u64()};
  c->block_bytes = ByteCount{d.u64()};
  c->line_bytes = ByteCount{d.u64()};
  c->l1_bytes = ByteCount{d.u64()};
  c->l1_hit_cycles = Cycles{d.u64()};
  c->rac_bytes = ByteCount{d.u64()};
  c->rac_array_cycles = Cycles{d.u64()};
  c->bus_occupancy = Cycles{d.u64()};
  c->dram_banks = d.u32();
  c->dram_access_cycles = Cycles{d.u64()};
  c->dsm_engine_cycles = Cycles{d.u64()};
  c->dir_lookup_cycles = Cycles{d.u64()};
  c->switch_arity = d.u32();
  c->net_fall_through = Cycles{d.u64()};
  c->net_propagation = Cycles{d.u64()};
  c->net_interface_cycles = Cycles{d.u64()};
  c->net_port_occupancy = Cycles{d.u64()};
  c->cost_page_fault = Cycles{d.u64()};
  c->cost_interrupt = Cycles{d.u64()};
  c->cost_remap = Cycles{d.u64()};
  c->cost_flush_line = Cycles{d.u64()};
  c->cost_daemon_wakeup = Cycles{d.u64()};
  c->cost_daemon_scan_page = Cycles{d.u64()};
  c->private_op_cycles = Cycles{d.u64()};
  c->lock_op_cycles = Cycles{d.u64()};
  c->barrier_cycles = Cycles{d.u64()};
  c->blocking_stores = d.b();
  c->store_buffer_entries = d.u32();
  c->free_min_frac = d.f64();
  c->free_target_frac = d.f64();
  c->daemon_period = Cycles{d.u64()};
  c->refetch_threshold = d.u32();
  c->threshold_increment = d.u32();
  c->threshold_max = d.u32();
  c->vcnuma_break_even = d.u32();
  c->vcnuma_eval_replacements = d.f64();
  c->daemon_backoff_factor = d.f64();
  c->daemon_period_max = Cycles{d.u64()};
  c->ascoma_scoma_first = d.b();
  c->ascoma_backoff = d.b();
  c->memory_pressure = d.f64();
  c->arch = static_cast<ArchModel>(d.u8());
  c->sample_every = Cycles{d.u64()};
  c->fault_drop = d.f64();
  c->fault_dup = d.f64();
  c->fault_jitter = d.f64();
  c->fault_jitter_cycles = Cycles{d.u64()};
  c->fault_seed = d.u64();
  c->retry_timeout = Cycles{d.u64()};
  c->retry_backoff_base = Cycles{d.u64()};
  c->retry_backoff_max = Cycles{d.u64()};
  c->retry_max_attempts = d.u32();
  c->nack_busy_cycles = Cycles{d.u64()};
  c->watchdog_cycles = Cycles{d.u64()};
  c->seed = d.u64();
  c->check_invariants = d.b();
  c->sink = nullptr;
  c->profiler = nullptr;
  d.end_section();
}

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

// ---- RunResult --------------------------------------------------------------

void encode_run_result(store::Encoder& e, const RunResult& r) {
  e.begin_section("run");
  encode_node_stats(e, r.stats.totals);
  e.u64(r.stats.parallel_cycles.value());
  e.u32(r.stats.nodes);
  e.u64(r.stats.frames_per_node);
  e.u64(r.stats.home_pages_per_node);
  e.f64(r.stats.memory_pressure);
  e.u64(r.per_node.size());
  for (const NodeStats& s : r.per_node) encode_node_stats(e, s);
  e.u64(r.final_threshold.size());
  for (const std::uint32_t t : r.final_threshold) e.u32(t);
  e.u64(r.relocation_enabled.size());
  for (const std::uint8_t v : r.relocation_enabled) e.u8(v);
  e.u64(r.remote_page_node_pairs);
  e.u64(r.relocated_pairs);
  e.u64(r.lock_acquisitions);
  e.u64(r.contended_locks);
  e.u64(r.barrier_episodes);
  e.u64(r.net_messages);
  e.u64(r.directory_invalidations);
  e.u64(r.directory_forwards);
  e.u64(r.writebacks_local);
  e.u64(r.writebacks_remote);
  e.u64(r.net_retransmits);
  e.u64(r.net_retries);
  e.u64(r.nacks);
  e.u64(r.faults_injected);
  e.b(r.invariants_checked);
  encode_config(e, r.config);
  e.end_section();
}

void decode_run_result(store::Decoder& d, RunResult* r) {
  d.begin_section("run");
  decode_node_stats(d, &r->stats.totals);
  r->stats.parallel_cycles = Cycle{d.u64()};
  r->stats.nodes = d.u32();
  r->stats.frames_per_node = d.u64();
  r->stats.home_pages_per_node = d.u64();
  r->stats.memory_pressure = d.f64();
  r->per_node.resize(d.u64());
  for (NodeStats& s : r->per_node) decode_node_stats(d, &s);
  r->final_threshold.resize(d.u64());
  for (std::uint32_t& t : r->final_threshold) t = d.u32();
  r->relocation_enabled.resize(d.u64());
  for (std::uint8_t& v : r->relocation_enabled) v = d.u8();
  r->remote_page_node_pairs = d.u64();
  r->relocated_pairs = d.u64();
  r->lock_acquisitions = d.u64();
  r->contended_locks = d.u64();
  r->barrier_episodes = d.u64();
  r->net_messages = d.u64();
  r->directory_invalidations = d.u64();
  r->directory_forwards = d.u64();
  r->writebacks_local = d.u64();
  r->writebacks_remote = d.u64();
  r->net_retransmits = d.u64();
  r->net_retries = d.u64();
  r->nacks = d.u64();
  r->faults_injected = d.u64();
  r->invariants_checked = d.b();
  decode_config(d, &r->config);
  d.end_section();
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
  encode_config(e, cfg);
  const std::vector<std::uint8_t>& bytes = e.bytes();
  Fingerprint fp;
  fp.hi = store::fnv1a64(bytes.data(), bytes.size(),
                         store::kFnvBasis ^ kSaltHi);
  fp.lo = store::fnv1a64(bytes.data(), bytes.size(),
                         store::kFnvBasis ^ kSaltLo);
  return fp;
}

}  // namespace ascoma::core
