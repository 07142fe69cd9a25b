#pragma once

// Typed, cycle-timestamped simulator events (the observability taxonomy).
//
// Every policy-relevant transition the paper's narrative depends on — page
// faults, allocation mode choices, CC-NUMA<->S-COMA remaps, pageout-daemon
// runs, back-off threshold moves, relocation suppression, directory
// invalidations/forwards, and barrier episodes — is describable as one
// fixed-size Event.  Producers hand events to the run's obs::Probe
// (obs/probe.hh); nothing in the simulator ever blocks on the emission
// path.

#include <cstdint>

#include "common/types.hh"

namespace ascoma::obs {

enum class EventKind : std::uint8_t {
  kPageFault,        ///< first-touch fault on a remote page (page)
  kScomaAlloc,       ///< fault mapped the page S-COMA (page)
  kNumaAlloc,        ///< fault mapped the page CC-NUMA (page)
  kRelocInterrupt,   ///< relocation interrupt delivered (page)
  kUpgrade,          ///< CC-NUMA -> S-COMA remap completed (page)
  kDowngrade,        ///< S-COMA page evicted/downgraded (page)
  kRemapSuppressed,  ///< relocation interrupt fired, remap suppressed (page)
  kDaemonRun,        ///< pageout daemon ran (a=scanned, b=reclaimed, c=met)
  kThresholdRaise,   ///< back-off escalation (a=new threshold, b=reloc on)
  kThresholdDrop,    ///< back-off relaxation (a=new threshold, b=reloc on)
  kDirInvalidation,  ///< directory invalidated sharers (page, a=blk, b=#tgt)
  kDirForward,       ///< 3-hop forward to a dirty owner (page, a=blk, b=own)
  kBarrierRelease,   ///< all processors arrived; barrier released (a=episode)
  kFaultInjected,    ///< fault plan hit a message (a=kind, b=dst, c=jitter)
  kNack,             ///< overloaded home NACKed a request (a=req, b=backlog)
  kRetry,            ///< requester retransmitted after loss (a=dst, b=attempt)
  kWatchdogTrip,     ///< forward-progress bound exceeded (a=elapsed,
                     ///<  b=retries, c=nacks); the run aborts after this
  kSweepStraggler,   ///< sweep job's host wall time exceeded the straggler
                     ///<  multiple of the sweep median (a=wall_ms,
                     ///<  b=median_ms, c=job index); cycle = job end cycle
};
inline constexpr int kNumEventKinds = 18;

/// Short stable identifier ("page_fault", "upgrade", ...) used by exporters.
const char* to_string(EventKind k);

/// Exporter-facing name of Event argument slot `i` (0 = a, 1 = b, 2 = c) for
/// events of kind `k`, or nullptr when the slot is unused by that kind.
const char* arg_name(EventKind k, int i);

/// One observed transition.  `page` is kInvalidPage for events without a
/// page subject; the meaning of a/b/c is per-kind (see EventKind comments).
struct Event {
  Cycle cycle{0};
  EventKind kind = EventKind::kPageFault;
  NodeId node{0};
  VPageId page = kInvalidPage;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

}  // namespace ascoma::obs
