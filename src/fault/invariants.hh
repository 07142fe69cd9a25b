#pragma once

// Post-run coherence invariant sweep.
//
// The run-time shadow checker (MachineConfig::check_invariants) catches
// stale *reads* the moment they happen; this module instead sweeps the whole
// machine state — directory entries, per-node L1/RAC/S-COMA residency, page
// tables and page-cache frame accounting — and cross-checks the structures
// against each other.  It exists for the fault-injection work: a bug in the
// retry/NACK paths that silently corrupts metadata (a node left in a copyset
// after a flush, a mapped S-COMA page without a frame, two nodes believing
// they own a block) may never be *read* through during a short run, but a
// sweep finds it immediately.
//
// The checker only reads state, reports instead of throwing, and is
// O(blocks + pages * nodes) — intended for end-of-run validation and
// tests, not the inner loop.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "proto/coherent_memory.hh"
#include "vm/page_cache.hh"
#include "vm/page_table.hh"

namespace ascoma::fault {

struct InvariantReport {
  std::uint64_t blocks_checked = 0;
  std::uint64_t pages_checked = 0;
  std::uint64_t nodes_checked = 0;
  std::uint64_t total_violations = 0;
  /// First kMaxReported violation descriptions (the count above is exact).
  std::vector<std::string> violations;

  static constexpr std::size_t kMaxReported = 16;

  bool ok() const { return total_violations == 0; }
  std::string to_string() const;
};

/// Sweep every block, page, and node.  `tables` and `caches` are the
/// per-node page tables and S-COMA page caches (both sized to the node
/// count of `cmem`'s config).
InvariantReport check_coherence_invariants(
    const proto::CoherentMemory& cmem,
    std::span<const vm::PageTable* const> tables,
    std::span<const vm::PageCache* const> caches);

}  // namespace ascoma::fault
