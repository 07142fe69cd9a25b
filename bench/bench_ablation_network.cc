// Ablation: interconnect speed.  The paper's introduction notes that
// high-end interconnects (SUN UE10000, SGI Origin) push the remote:local
// latency ratio toward ~2:1 but "require expensive hardware"; the hybrid
// architectures attack the problem from the other side, by reducing the
// *frequency* of remote accesses.  This sweep varies the network speed and
// shows how the hybrids' advantage over CC-NUMA scales with the ratio —
// the slower the network, the more a page cache is worth.

#include <iostream>

#include "bench_util.hh"

using namespace ascoma;
using namespace ascoma::bench;

namespace {

// Scale the network parameters to hit (approximately) a target remote:local
// minimum-latency ratio.
MachineConfig with_ratio(double target_ratio) {
  MachineConfig cfg;
  // Tune the per-hop costs; local latency (50) is unchanged, so
  // remote = 66 + 2 * one_way.
  const double needed_one_way = (target_ratio * 50.0 - 66.0) / 2.0;
  // one_way = 2*ni + stages*ft + (stages+1)*prop + port.  Keep ft/prop/port
  // fixed, solve for ni (>= 1).
  const double fixed = 2.0 * 4 + 3.0 * 2 + 8.0;
  const double ni = std::max(1.0, (needed_one_way - fixed) / 2.0);
  cfg.net_interface_cycles = Cycle{static_cast<Cycle::rep>(ni + 0.5)};
  return cfg;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: remote:local latency ratio (em3d @50%) ===\n\n";

  Table t({"remote:local", "remote min (cyc)", "CCNUMA cyc", "ASCOMA rel.",
           "SCOMA rel.", "RNUMA rel."});
  for (double ratio : {2.0, 3.0, 6.0, 10.0}) {
    const MachineConfig base = with_ratio(ratio);
    std::vector<core::SweepJob> jobs;
    for (ArchModel arch : {ArchModel::kCcNuma, ArchModel::kAsComa,
                           ArchModel::kScoma, ArchModel::kRNuma}) {
      core::SweepJob j;
      j.config = base;
      j.config.arch = arch;
      j.config.memory_pressure = 0.5;
      j.label = to_string(arch);
      j.workload = "em3d";
      j.workload_scale = bench_scale();
      jobs.push_back(std::move(j));
    }
    const auto rs = core::run_sweep(jobs, bench_threads());
    maybe_export_csv("em3d/ratio=" + Table::num(ratio, 1), rs);
    const double cc = static_cast<double>(find(rs, "CCNUMA").result.cycles().value());
    auto rel = [&](const char* label) {
      return Table::num(
          static_cast<double>(find(rs, label).result.cycles().value()) / cc, 3);
    };
    t.add_row({Table::num(static_cast<double>(base.min_remote_latency().value()) /
                              static_cast<double>(base.min_local_latency().value()),
                          2),
               std::to_string(base.min_remote_latency().value()),
               std::to_string(find(rs, "CCNUMA").result.cycles().value()),
               rel("ASCOMA"), rel("SCOMA"), rel("RNUMA")});
  }
  t.print(std::cout);
  std::cout << "\nExpected: the hybrids' advantage over CC-NUMA grows with"
               " the remote:local ratio —\nat SGI-Origin-class 2:1 networks"
               " replication buys little; at 10:1 it is decisive.\n";
  return 0;
}
