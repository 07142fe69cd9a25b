// Table 5 reproduction: programs and problem sizes — home pages per node,
// maximum remote pages accessed by any node, and the resulting "ideal
// pressure" below which S-COMA/AS-COMA never suffer a remote conflict miss.
// The remote working set is *measured* by running each program on CC-NUMA
// (whose behaviour does not depend on pressure) and reading the census.

#include <algorithm>
#include <iostream>

#include "bench_util.hh"
#include "workload/workload.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Table 5: programs and problem sizes ===\n\n";

  std::vector<core::SweepJob> jobs;
  for (const auto& name : workload::workload_names()) {
    core::SweepJob j;
    j.config.arch = ArchModel::kCcNuma;
    j.config.memory_pressure = 0.5;
    j.label = name;
    j.workload = name;
    j.workload_scale = bench_scale();
    jobs.push_back(std::move(j));
  }
  const auto rs = core::run_sweep(jobs, bench_threads());
  for (const auto& r : rs) maybe_export_csv(r.job.workload, {r});

  Table t({"program", "nodes", "home pages/node", "max remote pages",
           "ideal pressure", "shared refs (M)", "barriers"});
  for (const auto& r : rs) {
    const auto& res = r.result;
    std::uint64_t max_remote = 0;
    for (const auto& n : res.per_node)
      max_remote = std::max(max_remote, n.remote_pages_touched);
    const double home =
        static_cast<double>(res.stats.home_pages_per_node);
    const double ideal = home / (home + static_cast<double>(max_remote));
    const double refs =
        static_cast<double>(res.stats.totals.shared_loads +
                            res.stats.totals.shared_stores) /
        1e6;
    t.add_row({r.job.label, std::to_string(res.stats.nodes),
               std::to_string(res.stats.home_pages_per_node),
               std::to_string(max_remote), Table::pct(ideal, 0),
               Table::num(refs, 2),
               std::to_string(res.barrier_episodes)});
  }
  t.print(std::cout);
  std::cout << "\nIdeal pressure = home / (home + max remote): below it every"
               " node can replicate\nits entire remote working set locally "
               "(paper Table 5, rightmost column).\n";
  return 0;
}
