#include "obs/sink.hh"

#include <algorithm>

namespace ascoma::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kPageFault: return "page_fault";
    case EventKind::kScomaAlloc: return "scoma_alloc";
    case EventKind::kNumaAlloc: return "numa_alloc";
    case EventKind::kRelocInterrupt: return "reloc_interrupt";
    case EventKind::kUpgrade: return "upgrade";
    case EventKind::kDowngrade: return "downgrade";
    case EventKind::kRemapSuppressed: return "remap_suppressed";
    case EventKind::kDaemonRun: return "daemon_run";
    case EventKind::kThresholdRaise: return "threshold_raise";
    case EventKind::kThresholdDrop: return "threshold_drop";
    case EventKind::kDirInvalidation: return "dir_invalidation";
    case EventKind::kDirForward: return "dir_forward";
    case EventKind::kBarrierRelease: return "barrier_release";
    case EventKind::kFaultInjected: return "fault_injected";
  }
  return "?";
}

const char* arg_name(EventKind k, int i) {
  switch (k) {
    case EventKind::kDaemonRun:
      return i == 0 ? "scanned" : i == 1 ? "reclaimed" : "met_target";
    case EventKind::kThresholdRaise:
    case EventKind::kThresholdDrop:
      return i == 0 ? "threshold" : i == 1 ? "relocation_enabled" : nullptr;
    case EventKind::kDirInvalidation:
      return i == 0 ? "block" : i == 1 ? "targets" : nullptr;
    case EventKind::kDirForward:
      return i == 0 ? "block" : i == 1 ? "owner" : nullptr;
    case EventKind::kBarrierRelease:
      return i == 0 ? "episode" : nullptr;
    case EventKind::kFaultInjected:
      return i == 0 ? "dst" : i == 1 ? "jitter" : nullptr;
    default:
      return nullptr;
  }
}

EventSink::EventSink(std::size_t capacity) : capacity_(capacity) {
  events_.reserve(capacity_);
}

std::vector<Event> EventSink::sorted_events() const {
  std::vector<Event> out = events_;
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) {
                     return x.cycle < y.cycle;
                   });
  return out;
}

void EventSink::clear() {
  events_.clear();
  samples_.clear();
  tally_.fill(0);
  dropped_ = 0;
}

}  // namespace ascoma::obs
