// Figure 3 reproduction: lu, ocean, radix — relative execution time by
// bucket and miss satisfaction breakdown across architectures and memory
// pressures, plus the paper's headline claims for these applications.

#include <iostream>
#include <map>

#include "bench_util.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Figure 3: lu, ocean, radix ===\n\n";

  std::map<std::string, std::vector<core::SweepResult>> all;
  for (const std::string app : {"lu", "ocean", "radix"}) {
    const auto results =
        core::run_sweep(figure_jobs(app), bench_threads());
    print_time_breakdown(app, results);
    std::cout << '\n';
    print_miss_breakdown(app, results);
    std::cout << '\n';
    maybe_export_csv(app, results);
    all[app] = results;
  }

  // ---- paper-claim spot checks ---------------------------------------------
  std::cout << "=== claim checks (paper sections 5.1/5.2) ===\n";
  {
    const auto& rs = all.at("radix");
    const double cc = static_cast<double>(find(rs, "CCNUMA(50%)").result.cycles().value());
    const double as10 = static_cast<double>(find(rs, "ASCOMA(10%)").result.cycles().value());
    const double rn10 = static_cast<double>(find(rs, "RNUMA(10%)").result.cycles().value());
    const double vc10 = static_cast<double>(find(rs, "VCNUMA(10%)").result.cycles().value());
    const double as90 = static_cast<double>(find(rs, "ASCOMA(90%)").result.cycles().value());
    const double rn90 = static_cast<double>(find(rs, "RNUMA(90%)").result.cycles().value());
    std::cout << "radix @10%: AS-COMA beats R-NUMA by "
              << Table::pct((rn10 - as10) / rn10) << ", VC-NUMA by "
              << Table::pct((vc10 - as10) / vc10)
              << " (paper: up to ~17% from S-COMA-first allocation)\n";
    std::cout << "radix @90%: AS-COMA/CC-NUMA = " << Table::num(as90 / cc, 3)
              << " (paper: within a few % of CC-NUMA at worst)\n";
    std::cout << "radix @90%: R-NUMA/CC-NUMA = " << Table::num(rn90 / cc, 3)
              << " (paper: R-NUMA far below CC-NUMA at 90%)\n";
  }
  {
    const auto& rs = all.at("lu");
    const double cc = static_cast<double>(find(rs, "CCNUMA(50%)").result.cycles().value());
    for (const char* label : {"ASCOMA(10%)", "ASCOMA(90%)", "RNUMA(90%)",
                              "VCNUMA(90%)"}) {
      std::cout << "lu: " << label << "/CC-NUMA = "
                << Table::num(static_cast<double>(find(rs, label).result.cycles().value()) / cc, 3)
                << '\n';
    }
    std::cout << "(paper: every hybrid outperforms CC-NUMA at all pressures "
                 "for lu)\n";
  }
  {
    const auto& rs = all.at("ocean");
    const auto& cc = find(rs, "CCNUMA(50%)").result;
    const auto& m = cc.stats.totals.misses;
    std::cout << "ocean: CC-NUMA remote miss share = "
              << Table::pct(static_cast<double>(m.remote()) /
                            static_cast<double>(m.total()))
              << " (paper: only a small % of misses are remote)\n";
  }
  return 0;
}
