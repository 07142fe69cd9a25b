#include "digest.hh"

#include <cstdio>

namespace simbench {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
}  // namespace

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= kFnvPrime;
  }
}

void Digest::add(std::string_view s) {
  add(std::uint64_t{s.size()});
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= kFnvPrime;
  }
}

void Digest::add(const ascoma::core::RunResult& r) {
  const ascoma::NodeStats& t = r.stats.totals;
  add(r.stats.parallel_cycles.value());
  for (const ascoma::Cycle c : t.time.cycles) add(c.value());
  for (const std::uint64_t m : t.misses.count) add(m);
  const ascoma::KernelStats& k = t.kernel;
  for (const std::uint64_t v :
       {k.page_faults, k.scoma_allocs, k.numa_allocs, k.upgrades, k.downgrades,
        k.relocation_interrupts, k.lines_flushed, k.daemon_runs,
        k.daemon_pages_scanned, k.daemon_pages_reclaimed,
        k.daemon_reclaim_failures, k.threshold_raises, k.threshold_drops,
        k.remap_suppressed, k.refetch_notifications, k.net_retries, k.nacks})
    add(v);
  for (const std::uint64_t v :
       {t.shared_loads, t.shared_stores, t.l1_hits, t.upgrades_issued,
        t.induced_cold_misses, r.net_messages, r.directory_invalidations,
        r.directory_forwards, r.writebacks_local, r.writebacks_remote,
        r.lock_acquisitions, r.barrier_episodes})
    add(v);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace simbench
