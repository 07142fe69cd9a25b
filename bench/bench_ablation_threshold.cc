// Ablation: relocation threshold sensitivity.  The paper fixes the initial
// threshold at 64 refetches for all hybrids; this sweep shows how R-NUMA
// (fixed threshold) and AS-COMA (adaptive starting point) respond to the
// choice, on em3d at 85% pressure (above its ~76% ideal) where relocation decisions matter most.

#include <iostream>

#include "bench_util.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Ablation: relocation threshold sweep (em3d @85%) ===\n\n";

  std::vector<core::SweepJob> jobs;
  {
    core::SweepJob j;
    j.config.arch = ArchModel::kCcNuma;
    j.config.memory_pressure = 0.85;
    j.label = "CCNUMA";
    j.workload = "em3d";
    j.workload_scale = bench_scale();
    jobs.push_back(std::move(j));
  }
  for (ArchModel arch : {ArchModel::kRNuma, ArchModel::kAsComa}) {
    for (std::uint32_t threshold : {16u, 32u, 64u, 128u, 256u}) {
      core::SweepJob j;
      j.config.arch = arch;
      j.config.memory_pressure = 0.85;
      j.config.refetch_threshold = threshold;
      j.label = std::string(to_string(arch)) + "/T=" +
                std::to_string(threshold);
      j.workload = "em3d";
      j.workload_scale = bench_scale();
      jobs.push_back(std::move(j));
    }
  }
  const auto rs = core::run_sweep(jobs, bench_threads());
  maybe_export_csv("em3d", rs);
  const double cc = static_cast<double>(find(rs, "CCNUMA").result.cycles().value());

  Table t({"config", "rel.time", "upgrades", "K-OVERHD%", "SCOMA hits",
           "CONF/CAPC remote"});
  for (const auto& r : rs) {
    const auto& k = r.result.stats.totals.kernel;
    const auto& m = r.result.stats.totals.misses;
    t.add_row({r.job.label,
               Table::num(static_cast<double>(r.result.cycles().value()) / cc, 3),
               std::to_string(k.upgrades),
               Table::pct(r.result.stats.totals.time.frac(
                   TimeBucket::kKernelOvhd)),
               std::to_string(m[MissSource::kScoma]),
               std::to_string(m[MissSource::kConfCapc])});
  }
  t.print(std::cout);
  std::cout << "\nExpected: R-NUMA is sensitive (low threshold => remap storm"
               " at pressure;\nhigh threshold => missed opportunities)."
               "  AS-COMA's adaptation flattens the curve.\n";
  return 0;
}
