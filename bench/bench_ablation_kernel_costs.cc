// Ablation: kernel software costs.  The paper's central methodological
// point is that "previous studies have tended to ignore the impact of
// software overhead ... but our findings indicate that the effect of this
// factor can be dramatic."  This sweep scales the kernel cost parameters
// (interrupt delivery, remap, per-line flush, daemon work) by 0.5-4x on
// em3d at 90% pressure: R-NUMA — which pays these costs on every upgrade —
// degrades in proportion, while AS-COMA's back-off caps its exposure.

#include <iostream>

#include "bench_util.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Ablation: kernel software cost scale (em3d @90%) ===\n\n";

  Table t({"kernel cost x", "CCNUMA cyc", "SCOMA rel.", "RNUMA rel.",
           "ASCOMA rel.", "RNUMA K-OVERHD%", "ASCOMA K-OVERHD%"});
  for (double scale : {0.5, 1.0, 2.0, 4.0}) {
    std::vector<core::SweepJob> jobs;
    for (ArchModel arch : {ArchModel::kCcNuma, ArchModel::kScoma,
                           ArchModel::kRNuma, ArchModel::kAsComa}) {
      core::SweepJob j;
      j.config.arch = arch;
      j.config.memory_pressure = 0.9;
      auto scaled = [&](Cycle c) {
        return Cycle{static_cast<Cycle::rep>(static_cast<double>(c.value()) * scale)};
      };
      j.config.cost_interrupt = scaled(j.config.cost_interrupt);
      j.config.cost_remap = scaled(j.config.cost_remap);
      j.config.cost_flush_line = scaled(j.config.cost_flush_line);
      j.config.cost_daemon_wakeup = scaled(j.config.cost_daemon_wakeup);
      j.config.cost_daemon_scan_page = scaled(j.config.cost_daemon_scan_page);
      j.label = to_string(arch);
      j.workload = "em3d";
      j.workload_scale = bench_scale();
      jobs.push_back(std::move(j));
    }
    const auto rs = core::run_sweep(jobs, bench_threads());
    maybe_export_csv("em3d/kcost=" + Table::num(scale, 1), rs);
    const double cc = static_cast<double>(find(rs, "CCNUMA").result.cycles().value());
    auto rel = [&](const char* label) {
      return Table::num(
          static_cast<double>(find(rs, label).result.cycles().value()) / cc, 3);
    };
    auto kovhd = [&](const char* label) {
      return Table::pct(find(rs, label).result.stats.totals.time.frac(
          TimeBucket::kKernelOvhd));
    };
    t.add_row({Table::num(scale, 1),
               std::to_string(find(rs, "CCNUMA").result.cycles().value()),
               rel("SCOMA"), rel("RNUMA"), rel("ASCOMA"), kovhd("RNUMA"),
               kovhd("ASCOMA")});
  }
  t.print(std::cout);
  std::cout << "\nExpected: S-COMA's and R-NUMA's degradation scales with the"
               " kernel costs the paper\nsays prior studies ignored, while"
               " AS-COMA's back-off keeps its exposure roughly flat.\n";
  return 0;
}
