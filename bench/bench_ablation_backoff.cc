// Ablation: AS-COMA's adaptive replacement back-off (contribution #2).
// Runs AS-COMA with the back-off enabled vs disabled across pressures on the
// two workloads where the paper attributes the high-pressure win to it
// (em3d and radix).  With the back-off disabled, AS-COMA keeps S-COMA-first
// allocation but remaps unconditionally whenever frames can be reclaimed —
// the thrashing mode the paper's Section 5.2 dissects.

#include <iostream>

#include "bench_util.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Ablation: adaptive back-off on/off (AS-COMA) ===\n\n";

  for (const std::string app : {"em3d", "radix"}) {
    std::vector<core::SweepJob> jobs;
    for (int variant = 0; variant < 3; ++variant) {
      for (int pct : {50, 70, 90}) {
        core::SweepJob j;
        j.config.arch = ArchModel::kAsComa;
        j.config.memory_pressure = pct / 100.0;
        const char* name = "backoff";
        if (variant == 1) {
          j.config.ascoma_backoff = false;
          name = "no-backoff";
        } else if (variant == 2) {
          // Fully naive: no adaptation *and* an unthrottled BSD daemon —
          // the configuration prior hybrid studies implicitly evaluate.
          j.config.ascoma_backoff = false;
          j.config.daemon_period = Cycle{50'000};
          name = "naive-daemon";
        }
        j.label = std::string(name) + "(" + std::to_string(pct) + "%)";
        j.workload = app;
        j.workload_scale = bench_scale();
        jobs.push_back(std::move(j));
      }
    }
    {
      core::SweepJob j;
      j.config.arch = ArchModel::kCcNuma;
      j.config.memory_pressure = 0.5;
      j.label = "CCNUMA";
      j.workload = app;
      j.workload_scale = bench_scale();
      jobs.push_back(std::move(j));
    }
    const auto rs = core::run_sweep(jobs, bench_threads());
    maybe_export_csv(app, rs);
    const double cc = static_cast<double>(find(rs, "CCNUMA").result.cycles().value());

    Table t({"config", "rel.time", "K-OVERHD%", "upgrades", "downgrades",
             "suppressed", "threshold raises", "induced cold"});
    for (const auto& r : rs) {
      const auto& k = r.result.stats.totals.kernel;
      const auto& time = r.result.stats.totals.time;
      t.add_row({r.job.label,
                 Table::num(static_cast<double>(r.result.cycles().value()) / cc, 3),
                 Table::pct(time.frac(TimeBucket::kKernelOvhd)),
                 std::to_string(k.upgrades), std::to_string(k.downgrades),
                 std::to_string(k.remap_suppressed),
                 std::to_string(k.threshold_raises),
                 std::to_string(r.result.stats.totals.induced_cold_misses)});
    }
    std::cout << "-- " << app << " --\n";
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: without back-off, K-OVERHD and induced cold misses"
               " grow with pressure\nand relative time exceeds CC-NUMA; with"
               " back-off both stay bounded.\n";
  return 0;
}
