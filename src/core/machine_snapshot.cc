#include <cstdint>
#include <utility>

#include "common/check.hh"
#include "core/machine.hh"
#include "core/canonical.hh"
#include "store/codec.hh"
#include "store/snapshot.hh"

// Machine checkpoint/restore (ARCHITECTURE.md §15).
//
// A snapshot is a versioned, tagged binary image of every piece of mutable
// machine state: the cooperative scheduler, barrier and lock tables, per-node
// VM tables and page caches, policy state (including AS-COMA's back-off
// kernel), the full coherent-memory hardware image (caches, directory,
// resources, fault-plan RNG), per-processor statistics, and the workload
// stream positions.  Immutable structure (home map, daemons, geometry) is
// reconstructed by the Machine constructor and verified via a config/workload
// fingerprint in the header — a snapshot can only restore into a machine
// built exactly the way the saved one was.
//
// Workload op streams are not serialized: they are deterministic in the seed,
// so the snapshot stores only the number of next() calls made per processor
// and restore() replays them against fresh streams.

namespace ascoma::core {

namespace {

/// Bumped on any layout change below; restore refuses other versions.
/// v2: the cmem coherence shadow is one stale-copy mask per block.
/// v3: a Resource is its free-at cycle alone; the DRAM access count, the RAC
/// fill count and the refetch total are gone, and the bus stores its busy
/// total.
constexpr std::uint32_t kSnapshotVersion = 3;

}  // namespace

void Machine::save(store::Snapshot* snap) const {
  store::Encoder e;

  e.begin_section("meta");
  e.u32(kSnapshotVersion);
  const Fingerprint fp = machine_fingerprint(cfg_, wl_.name(),
                                             wl_.total_pages(),
                                             cfg_.total_procs());
  e.u64(fp.hi);
  e.u64(fp.lo);
  e.end_section();

  e.begin_section("sim");
  sched_.encode(e);
  barrier_.encode(e);
  locks_.encode(e);
  e.end_section();

  e.begin_section("vm");
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n) {
    page_tables_[n]->encode(e);
    page_caches_[n]->encode(e);
  }
  e.end_section();

  e.begin_section("policy");
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n) policies_[n]->encode(e);
  e.end_section();

  cmem_->encode(e);  // writes its own "cmem" section

  e.begin_section("mach");
  for (const std::uint64_t k : ops_consumed_) e.u64(k);
  for (const NodeStats& s : node_stats_) encode_node_stats(e, s);
  e.b(!store_buffer_.empty());
  for (const auto& sb : store_buffer_)
    for (const Cycle c : sb) e.u64(c.value());
  for (const Cycle c : daemon_period_) e.u64(c.value());
  for (const Cycle c : next_daemon_) e.u64(c.value());
  for (const std::uint8_t w : waiting_in_barrier_) e.u8(w);
  sampler_.encode(e);
  e.u64(end_cycle_.value());
  e.end_section();

  snap->bytes = e.bytes();
}

void Machine::restore(const store::Snapshot& snap) {
  ASCOMA_CHECK_MSG(!ran_, "restore() requires a machine that has not run");
  store::Decoder d(snap.bytes);

  d.begin_section("meta");
  if (d.u32() != kSnapshotVersion)
    throw store::CodecError("snapshot version mismatch");
  const Fingerprint want = machine_fingerprint(cfg_, wl_.name(),
                                               wl_.total_pages(),
                                               cfg_.total_procs());
  Fingerprint got;
  got.hi = d.u64();
  got.lo = d.u64();
  if (!(got == want))
    throw store::CodecError(
        "snapshot config/workload fingerprint mismatch: the snapshot was "
        "taken on a differently-configured machine");
  d.end_section();

  d.begin_section("sim");
  sched_.decode(d);
  barrier_.decode(d);
  locks_.decode(d);
  d.end_section();

  d.begin_section("vm");
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n) {
    page_tables_[n]->decode(d);
    page_caches_[n]->decode(d);
  }
  d.end_section();

  d.begin_section("policy");
  for (NodeId n{0}; n.value() < cfg_.nodes; ++n) policies_[n]->decode(d);
  d.end_section();

  cmem_->decode(d);

  d.begin_section("mach");
  ops_consumed_.assign(cfg_.total_procs(), 0);
  for (std::uint64_t& k : ops_consumed_) k = d.u64();
  for (NodeStats& s : node_stats_) decode_node_stats(d, &s);
  const bool buffered = d.b();
  if (buffered != !store_buffer_.empty())
    throw store::CodecError("snapshot store-buffer mode mismatch");
  for (auto& sb : store_buffer_)
    for (Cycle& c : sb) c = Cycle{d.u64()};
  for (Cycle& c : daemon_period_) c = Cycle{d.u64()};
  for (Cycle& c : next_daemon_) c = Cycle{d.u64()};
  rebuild_daemon_gate();
  for (std::uint8_t& w : waiting_in_barrier_) w = d.u8();
  sampler_.decode(d);
  end_cycle_ = Cycle{d.u64()};
  d.end_section();

  if (!d.done()) throw store::CodecError("snapshot has trailing bytes");

  // Rebuild the workload streams and fast-forward each to its saved
  // position.  Streams are deterministic in (proc, seed), so replaying the
  // recorded number of next() calls reproduces the generator state exactly.
  streams_.clear();
  const std::uint64_t wl_seed =
      cfg_.component_seed(MachineConfig::kSeedStreamWorkload);
  for (std::uint32_t p = 0; p < cfg_.total_procs(); ++p) {
    streams_.push_back(wl_.stream(p, wl_seed));
    for (std::uint64_t k = 0; k < ops_consumed_[p]; ++k) streams_[p]->next();
  }
  resumed_ = true;
}

void Machine::set_checkpoint(
    Cycle every,
    std::function<void(const store::Snapshot&, Cycle)> on_snapshot) {
  ASCOMA_CHECK_MSG(every > Cycle{0}, "checkpoint period must be positive");
  checkpoint_every_ = every;
  next_checkpoint_ = every;
  checkpoint_cb_ = std::move(on_snapshot);
}

void Machine::self_check_snapshot(const store::Snapshot& snap) const {
  MachineConfig cfg = cfg_;
  cfg.probe = nullptr;
  Machine scratch(cfg, wl_);
  scratch.restore(snap);
  store::Snapshot again;
  scratch.save(&again);
  ASCOMA_CHECK_MSG(again.bytes == snap.bytes,
                   "checkpoint self-check failed: snapshot does not restore "
                   "byte-identically (encode/decode drift)");
}

}  // namespace ascoma::core
