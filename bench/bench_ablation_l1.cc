// Ablation: L1 cache size.  The paper models a deliberately small 16 KB
// direct-mapped L1 "to compensate for the small size of the data sets" —
// conflict/capacity misses to remote data are precisely what the page cache
// converts into local misses.  Growing the L1 shrinks that miss stream and
// with it the hybrids' advantage; this sweep quantifies the sensitivity.

#include <iostream>

#include "bench_util.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Ablation: L1 size (barnes @50%) ===\n\n";

  Table t({"L1", "CCNUMA cyc", "CCNUMA remote misses", "ASCOMA rel.",
           "ASCOMA local miss %"});
  for (std::uint32_t kb : {8u, 16u, 128u, 1024u, 4096u}) {
    std::vector<core::SweepJob> jobs;
    for (ArchModel arch : {ArchModel::kCcNuma, ArchModel::kAsComa}) {
      core::SweepJob j;
      j.config.arch = arch;
      j.config.l1_bytes = ByteCount{kb * 1024ull};
      j.config.memory_pressure = 0.5;
      j.label = to_string(arch);
      j.workload = "barnes";
      j.workload_scale = bench_scale();
      jobs.push_back(std::move(j));
    }
    const auto rs = core::run_sweep(jobs, bench_threads());
    maybe_export_csv("barnes/L1=" + std::to_string(kb) + "KB", rs);
    const auto& cc = find(rs, "CCNUMA").result;
    const auto& as = find(rs, "ASCOMA").result;
    const auto& m = as.stats.totals.misses;
    t.add_row({std::to_string(kb) + "KB", std::to_string(cc.cycles().value()),
               std::to_string(cc.stats.totals.misses.remote()),
               Table::num(static_cast<double>(as.cycles().value()) /
                              static_cast<double>(cc.cycles().value()),
                          3),
               Table::pct(m.total() ? static_cast<double>(m.local()) /
                                          static_cast<double>(m.total())
                                    : 0.0)});
  }
  t.print(std::cout);
  std::cout << "\nExpected: growing the L1 slowly absorbs the remote working"
               " set and narrows the\nhybrid's advantage — but only slowly:"
               " with a direct-mapped cache, page-level\naliasing keeps"
               " purging remote data (the paper's point that \"data access"
               " patterns\nand cache organization cause cached remote data to"
               " be purged frequently\").\n";
  return 0;
}
