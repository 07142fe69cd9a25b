// Ablation: S-COMA-first initial allocation (contribution #1).
// Compares AS-COMA with S-COMA-preferred allocation against a variant that
// maps everything CC-NUMA-first (R-NUMA style) while keeping the back-off,
// at low memory pressure, where the paper attributes up to ~17% (radix) to
// accelerated convergence to S-COMA behaviour (Section 5.1).

#include <iostream>

#include "bench_util.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Ablation: initial allocation policy (AS-COMA) ===\n\n";

  Table t({"workload", "CC-NUMA cyc", "scoma-first rel.", "numa-first rel.",
           "benefit", "numa-first upgrades", "scoma-first upgrades"});
  for (const std::string app :
       {"radix", "lu", "barnes", "em3d", "fft", "ocean"}) {
    std::vector<core::SweepJob> jobs;
    auto add = [&](ArchModel arch, bool scoma_first, const char* label) {
      core::SweepJob j;
      j.config.arch = arch;
      j.config.memory_pressure = 0.10;  // paper: isolate at 10% pressure
      j.config.ascoma_scoma_first = scoma_first;
      j.label = label;
      j.workload = app;
      j.workload_scale = bench_scale();
      jobs.push_back(std::move(j));
    };
    add(ArchModel::kCcNuma, true, "ccnuma");
    add(ArchModel::kAsComa, true, "scoma-first");
    add(ArchModel::kAsComa, false, "numa-first");
    const auto rs = core::run_sweep(jobs, bench_threads());
    maybe_export_csv(app, rs);
    const double cc = static_cast<double>(find(rs, "ccnuma").result.cycles().value());
    const auto& sf = find(rs, "scoma-first").result;
    const auto& nf = find(rs, "numa-first").result;
    const double sfr = static_cast<double>(sf.cycles().value()) / cc;
    const double nfr = static_cast<double>(nf.cycles().value()) / cc;
    t.add_row({app, Table::num(cc, 0), Table::num(sfr, 3), Table::num(nfr, 3),
               Table::pct((nfr - sfr) / nfr),
               std::to_string(nf.stats.totals.kernel.upgrades),
               std::to_string(sf.stats.totals.kernel.upgrades)});
  }
  t.print(std::cout);
  std::cout << "\nExpected (paper section 5.1): largest benefit for radix"
               " (many pages to remap),\nmodest for lu, negligible for fft"
               " and ocean.\n";
  return 0;
}
