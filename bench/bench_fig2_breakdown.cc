// Figure 2 reproduction: barnes, em3d, fft — relative execution time by
// bucket (left charts) and where shared-data misses were satisfied (right
// charts), across CC-NUMA / S-COMA / AS-COMA / VC-NUMA / R-NUMA at the
// paper's memory pressures.  Ends with checks of the paper's headline
// claims for these applications.

#include <iostream>
#include <map>

#include "bench_util.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Figure 2: barnes, em3d, fft ===\n\n";

  std::map<std::string, std::vector<core::SweepResult>> all;
  for (const std::string app : {"barnes", "em3d", "fft"}) {
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
  std::cout << "=== claim checks (paper section 5.2) ===\n";
  {
    const auto& rs = all.at("em3d");
    const double cc = static_cast<double>(find(rs, "CCNUMA(50%)").result.cycles().value());
    const double as90 = static_cast<double>(find(rs, "ASCOMA(90%)").result.cycles().value());
    const double rn90 = static_cast<double>(find(rs, "RNUMA(90%)").result.cycles().value());
    const double vc90 = static_cast<double>(find(rs, "VCNUMA(90%)").result.cycles().value());
    std::cout << "em3d @90%: AS-COMA/CC-NUMA = " << Table::num(as90 / cc, 3)
              << " (paper: AS-COMA outperforms CC-NUMA even at 90%)\n";
    std::cout << "em3d @90%: R-NUMA/CC-NUMA  = " << Table::num(rn90 / cc, 3)
              << " (paper: CC-NUMA outperforms R-NUMA by ~20% at 90%)\n";
    std::cout << "em3d @90%: AS-COMA beats R-NUMA by "
              << Table::pct((rn90 - as90) / rn90)
              << ", VC-NUMA by " << Table::pct((vc90 - as90) / vc90) << '\n';
  }
  {
    const auto& rs = all.at("barnes");
    const double cc = static_cast<double>(find(rs, "CCNUMA(50%)").result.cycles().value());
    const double as10 = static_cast<double>(find(rs, "ASCOMA(10%)").result.cycles().value());
    const double as50 = static_cast<double>(find(rs, "ASCOMA(50%)").result.cycles().value());
    std::cout << "barnes: AS-COMA/CC-NUMA = " << Table::num(as10 / cc, 3)
              << " @10%, " << Table::num(as50 / cc, 3)
              << " @50% (paper: AS-COMA consistently outperforms CC-NUMA)\n";
  }
  {
    const auto& rs = all.at("fft");
    const auto& cc = find(rs, "CCNUMA(50%)").result;
    const auto& as90 = find(rs, "ASCOMA(90%)").result;
    const double ratio = static_cast<double>(as90.cycles().value()) /
                         static_cast<double>(cc.cycles().value());
    const auto& m = cc.stats.totals.misses;
    std::cout << "fft: hybrids/CC-NUMA @90% = " << Table::num(ratio, 3)
              << " (paper: all architectures except pure S-COMA within a few %)\n";
    std::cout << "fft: RAC satisfied "
              << Table::pct(static_cast<double>(m[MissSource::kRac]) /
                            static_cast<double>(m.total()))
              << " of CC-NUMA misses (paper: the RAC plays a major role)\n";
  }
  return 0;
}
