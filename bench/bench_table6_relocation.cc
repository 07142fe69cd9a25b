// Table 6 reproduction: number of remote pages ever accessed versus pages
// refetched often enough to qualify for relocation (refetch count >= the
// initial threshold of 64).  Measured at 50% memory pressure on CC-NUMA, as
// in the paper ("no page remappings beyond any initial ones will occur"),
// so the counters census the program's intrinsic behaviour.

#include <iostream>

#include "bench_util.hh"
#include "workload/workload.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Table 6: remote pages accessed vs conflicted frequently"
               " ===\n\n";

  std::vector<core::SweepJob> jobs;
  for (const auto& name : workload::workload_names()) {
    core::SweepJob j;
    j.config.arch = ArchModel::kCcNuma;  // counts without remapping effects
    j.config.memory_pressure = 0.5;
    j.label = name;
    j.workload = name;
    j.workload_scale = bench_scale();
    jobs.push_back(std::move(j));
  }
  const auto rs = core::run_sweep(jobs, bench_threads());
  for (const auto& r : rs) maybe_export_csv(r.job.workload, {r});

  Table t({"program", "total remote pages", "relocated pages",
           "% of relocated pages"});
  for (const auto& r : rs) {
    const std::uint64_t total = r.result.remote_page_node_pairs;
    const std::uint64_t hot = r.result.relocated_pairs;
    t.add_row({r.job.label, std::to_string(total), std::to_string(hot),
               Table::pct(total ? static_cast<double>(hot) /
                                      static_cast<double>(total)
                                : 0.0)});
  }
  t.print(std::cout);
  std::cout << "\nCounts are (page, node) pairs summed over nodes, as in the"
               " paper (a page remote\nto several nodes is counted once per"
               " accessing node).  Threshold = 64 refetches.\n"
               "Expected shape: fft ~0%, ocean/barnes/em3d moderate-to-high,"
               " lu and radix highest.\n";
  return 0;
}
