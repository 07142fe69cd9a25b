#pragma once

// The benchmark's four workloads.  Each is a closed-loop batch of
// simulation jobs from one process: a job starts when a worker frees.
//
//   paper_grid  every program x every architecture x pressures 10-90%, as
//               core::paper_grid builds them, on `nproc` sweep workers
//   remote      radix and barnes on CC-NUMA, one worker (network/directory)
//   thrash      90% pressure, one worker: radix on S-COMA, barnes and lu on
//               R-NUMA, VC-NUMA and AS-COMA (VM and policy work)
//   local       em3d and ocean on AS-COMA at 50%, one worker (L1/bus/DRAM)
//
// The seed is the only input: it becomes MachineConfig::seed of every job,
// which seeds the workload generators' op streams.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hh"

namespace simbench {

struct BenchWorkload {
  std::string name;
  unsigned workers = 1;  ///< run_sweep threads; 1 = jobs run in order
  std::vector<ascoma::core::SweepJob> jobs;
};

/// The workload called `name` with every job seeded by `seed`, or nullopt
/// for an unknown name.
std::optional<BenchWorkload> make_bench_workload(const std::string& name,
                                                 std::uint64_t seed);

/// Names accepted by make_bench_workload.
const std::vector<std::string>& bench_workload_names();

}  // namespace simbench
