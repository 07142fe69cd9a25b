// Ablation: the remote access cache.  The paper notes the minimal 128 B RAC
// "had a larger impact on performance than we had anticipated" for fft's
// sequential remote streaming.  This bench removes and grows the RAC on fft
// and radix (which, having no spatial locality, should not care).

#include <iostream>

#include "bench_util.hh"

using namespace ascoma;
using namespace ascoma::bench;

int main() {
  std::cout << "=== Ablation: RAC size (CC-NUMA) ===\n\n";

  for (const std::string app : {"fft", "radix"}) {
    std::vector<core::SweepJob> jobs;
    for (std::uint32_t rac_bytes : {0u, 128u, 512u, 4096u, 32768u}) {
      core::SweepJob j;
      j.config.arch = ArchModel::kCcNuma;
      j.config.memory_pressure = 0.5;
      j.config.rac_bytes = ByteCount{rac_bytes};
      j.label = "RAC=" + std::to_string(rac_bytes) + "B";
      j.workload = app;
      j.workload_scale = bench_scale();
      jobs.push_back(std::move(j));
    }
    const auto rs = core::run_sweep(jobs, bench_threads());
    maybe_export_csv(app, rs);
    const double base = static_cast<double>(find(rs, "RAC=128B").result.cycles().value());

    Table t({"config", "cycles", "rel. to 128B", "RAC hits",
             "remote fetches"});
    for (const auto& r : rs) {
      const auto& m = r.result.stats.totals.misses;
      t.add_row({r.job.label, std::to_string(r.result.cycles().value()),
                 Table::num(static_cast<double>(r.result.cycles().value()) / base, 3),
                 std::to_string(m[MissSource::kRac]),
                 std::to_string(m.remote())});
    }
    std::cout << "-- " << app << " --\n";
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: removing the RAC hurts fft badly (sequential 4-line"
               " chunks) and radix\nbarely at all (no spatial locality);"
               " growing it has diminishing returns.\n";
  return 0;
}
