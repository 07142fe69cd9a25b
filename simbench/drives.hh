#pragma once

// Outside-in module drives: timed loops over each simulator layer's public
// functions, fed with inputs recorded from the workload's own op streams.
// Each drive builds its layer objects directly (no core::Machine), replays
// a window of the recorded shared accesses through them, and reports host
// nanoseconds per call.  Set-up of each pass is untimed; a drive repeats
// passes until it has timed enough work and reports the median pass.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace simbench {

struct DriveResult {
  /// Ops summed over the workload's jobs (a program run by several jobs
  /// counts once per job), kEnd excluded: the ops one repetition generates
  /// and executes.
  std::uint64_t job_ops = 0;
  /// (metric, host ns per call), in a fixed order:
  ///   gen_ns_per_op       workload: OpStream construction + next(), per op
  ///   deliver_ns          net: Network::try_deliver, per message
  ///   dir_ns              proto: Directory::gets / getx, per request
  ///   access_ns           proto: CoherentMemory::access, pages pre-mapped
  ///   l1_ns, rac_ns       mem: L1Cache / Rac probe plus fill on a miss
  ///   dram_ns, bus_ns     mem: Dram::access, Bus::transact
  ///   page_cache_ns       vm: PageCache alloc/add, evicting via rotate
  ///   daemon_ns_per_page  vm: PageoutDaemon::run, per page scanned
  ///   policy_ns           arch: Policy::should_relocate / on_page_cache_hit
  ///   pick_ns             sim: Scheduler::pick + set_ready
  /// A drive with nothing to replay (e.g. no page-cache frames) reports 0.
  std::vector<std::pair<std::string, double>> ns_per_op;
};

/// Records every program of `w` (seeded by its jobs' configs) and drives
/// each layer with the recording.
DriveResult run_drives(const BenchWorkload& w, Tracer& tracer);

}  // namespace simbench
