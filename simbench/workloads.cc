#include "workloads.hh"

#include <algorithm>
#include <sstream>
#include <thread>

#include "workload/workload.hh"

namespace simbench {

namespace {

using ascoma::ArchModel;
using ascoma::MachineConfig;
using ascoma::core::SweepJob;

// Workload scales (iteration-count multipliers) keep one repetition of each
// single-worker workload near one host second, so a measured run holds a few
// dozen.  A program never runs fewer than one iteration: the grid sits at
// that floor.
constexpr double kGridScale = 0.1;
constexpr double kRemoteScale = 0.25;
constexpr double kThrashScale = 0.125;
constexpr double kLocalScale = 2.0;

MachineConfig base_config(std::uint64_t seed) {
  MachineConfig cfg;
  cfg.seed = seed;
  cfg.check_invariants = true;
  return cfg;
}

SweepJob job(const std::string& program, ArchModel arch, double pressure,
             double scale, std::uint64_t seed) {
  SweepJob j;
  j.config = base_config(seed);
  j.config.arch = arch;
  j.config.memory_pressure = pressure;
  j.workload = program;
  j.workload_scale = scale;
  std::ostringstream label;
  label << program << '/' << ascoma::to_string(arch) << '('
        << static_cast<int>(pressure * 100.0 + 0.5) << "%)";
  j.label = label.str();
  return j;
}

}  // namespace

const std::vector<std::string>& bench_workload_names() {
  static const std::vector<std::string> names{"paper_grid", "remote",
                                              "thrash", "local"};
  return names;
}

std::optional<BenchWorkload> make_bench_workload(const std::string& name,
                                                 std::uint64_t seed) {
  BenchWorkload w;
  w.name = name;
  if (name == "paper_grid") {
    w.workers = std::max(1u, std::thread::hardware_concurrency());
    const std::vector<double> pressures{0.1, 0.2, 0.3, 0.4, 0.5,
                                        0.6, 0.7, 0.8, 0.9};
    for (const std::string& program : ascoma::workload::workload_names()) {
      for (SweepJob& j : ascoma::core::paper_grid(
               program, pressures, base_config(seed), kGridScale)) {
        j.label = program + '/' + j.label;
        w.jobs.push_back(std::move(j));
      }
    }
  } else if (name == "remote") {
    for (const char* program : {"radix", "barnes"})
      w.jobs.push_back(job(program, ArchModel::kCcNuma, 0.5, kRemoteScale,
                           seed));
  } else if (name == "thrash") {
    w.jobs.push_back(job("radix", ArchModel::kScoma, 0.9, kThrashScale, seed));
    for (const char* program : {"barnes", "lu"})
      for (const ArchModel arch :
           {ArchModel::kRNuma, ArchModel::kVcNuma, ArchModel::kAsComa})
        w.jobs.push_back(job(program, arch, 0.9, kThrashScale, seed));
  } else if (name == "local") {
    for (const char* program : {"em3d", "ocean"})
      w.jobs.push_back(job(program, ArchModel::kAsComa, 0.5, kLocalScale,
                           seed));
  } else {
    return std::nullopt;
  }
  return w;
}

}  // namespace simbench
