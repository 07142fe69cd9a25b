#include "report/report.hh"

#include <algorithm>
#include <sstream>

#include "common/check.hh"

namespace ascoma::report {

double baseline_cycles(const std::vector<LabeledResult>& results) {
  ASCOMA_CHECK_MSG(!results.empty(), "no results to report");
  for (const auto& r : results) {
    ASCOMA_CHECK(r.result != nullptr);
    if (r.result->config.arch == ArchModel::kCcNuma)
      return static_cast<double>(r.result->cycles().value());
  }
  return static_cast<double>(results.front().result->cycles().value());
}

Table time_breakdown_table(const std::vector<LabeledResult>& results,
                           double baseline) {
  ASCOMA_CHECK(baseline > 0.0);
  Table t({"config", "rel.time", "U-SH-MEM", "K-BASE", "K-OVERHD", "U-INSTR",
           "U-LC-MEM", "SYNC"});
  for (const auto& lr : results) {
    const auto& time = lr.result->stats.totals.time;
    const double total = static_cast<double>(time.total().value());
    const double rel =
        static_cast<double>(lr.result->cycles().value()) / baseline;
    auto share = [&](TimeBucket b) {
      return Table::num(
          total > 0 ? rel * static_cast<double>(time[b].value()) / total : 0.0,
          3);
    };
    t.add_row({lr.label, Table::num(rel, 3), share(TimeBucket::kUserShared),
               share(TimeBucket::kKernelBase), share(TimeBucket::kKernelOvhd),
               share(TimeBucket::kUserInstr), share(TimeBucket::kUserLocal),
               share(TimeBucket::kSync)});
  }
  return t;
}

Table miss_breakdown_table(const std::vector<LabeledResult>& results) {
  Table t({"config", "HOME", "SCOMA", "RAC", "COLD", "CONF/CAPC", "total",
           "remote%"});
  for (const auto& lr : results) {
    const auto& m = lr.result->stats.totals.misses;
    const std::uint64_t conf =
        m[MissSource::kConfCapc] + m[MissSource::kCoherence];
    t.add_row({lr.label, std::to_string(m[MissSource::kHome]),
               std::to_string(m[MissSource::kScoma]),
               std::to_string(m[MissSource::kRac]),
               std::to_string(m[MissSource::kCold]), std::to_string(conf),
               std::to_string(m.total()),
               Table::pct(m.total() ? static_cast<double>(m.remote()) /
                                          static_cast<double>(m.total())
                                    : 0.0)});
  }
  return t;
}

std::string summary_line(const core::RunResult& r) {
  const auto& time = r.stats.totals.time;
  const auto& m = r.stats.totals.misses;
  std::ostringstream os;
  os << to_string(r.config.arch) << '('
     << Table::pct(r.stats.memory_pressure, 0) << "): " << r.cycles()
     << " cycles, U-SH-MEM " << Table::pct(time.frac(TimeBucket::kUserShared))
     << ", K-OVERHD " << Table::pct(time.frac(TimeBucket::kKernelOvhd))
     << ", local misses "
     << Table::pct(m.total() ? static_cast<double>(m.local()) /
                                   static_cast<double>(m.total())
                             : 0.0);
  return os.str();
}

std::string backoff_trajectory(const core::RunResult& r) {
  const auto& k = r.stats.totals.kernel;
  const std::uint64_t raises = k.threshold_raises;
  const std::uint64_t drops = k.threshold_drops;
  const std::uint32_t final_max =
      r.final_threshold.empty()
          ? r.config.refetch_threshold
          : *std::max_element(r.final_threshold.begin(),
                              r.final_threshold.end());
  const std::uint64_t reloc_on =
      static_cast<std::uint64_t>(std::count(r.relocation_enabled.begin(),
                                            r.relocation_enabled.end(), 1));
  std::ostringstream os;
  os << "back-off: threshold " << r.config.refetch_threshold << "->"
     << final_max << " (" << raises << (raises == 1 ? " raise, " : " raises, ")
     << drops << (drops == 1 ? " drop)" : " drops)") << ", relocation on "
     << reloc_on << "/" << r.relocation_enabled.size() << " nodes, "
     << k.remap_suppressed << " suppressed remaps";
  return os.str();
}

Table latency_table(const prof::Profiler& prof) {
  Table t({"class", "count", "min", "p50", "p90", "p99", "max"});
  auto row = [&](const std::string& name, const prof::LatencyHistogram& h) {
    if (!h.count()) return;
    t.add_row({name, std::to_string(h.count()), std::to_string(h.min()),
               std::to_string(h.p50()), std::to_string(h.p90()),
               std::to_string(h.p99()), std::to_string(h.max())});
  };
  row("all", prof.merged_end_to_end());
  for (int c = 0; c < prof::kNumAccessClasses; ++c) {
    const auto cls = static_cast<prof::AccessClass>(c);
    row(prof::to_string(cls), prof.end_to_end(cls));
  }
  return t;
}

std::string csv_header(bool with_latency) {
  std::string h =
      "workload,arch,pressure,cycles,ush_mem,k_base,k_overhd,u_instr,"
      "u_lc_mem,sync,home,scoma,rac,cold,conf_capc,coherence,upgrades,"
      "downgrades,suppressed";
  if (with_latency) h += ",lat_min,lat_p50,lat_p99,lat_max";
  return h;
}

std::string csv_row(const std::string& workload, const std::string& arch,
                    const core::RunResult& r) {
  const auto& time = r.stats.totals.time;
  const auto& m = r.stats.totals.misses;
  const auto& k = r.stats.totals.kernel;
  std::ostringstream os;
  os << workload << ',' << arch << ',' << r.stats.memory_pressure << ','
     << r.cycles() << ',' << time[TimeBucket::kUserShared] << ','
     << time[TimeBucket::kKernelBase] << ',' << time[TimeBucket::kKernelOvhd]
     << ',' << time[TimeBucket::kUserInstr] << ','
     << time[TimeBucket::kUserLocal] << ',' << time[TimeBucket::kSync] << ','
     << m[MissSource::kHome] << ',' << m[MissSource::kScoma] << ','
     << m[MissSource::kRac] << ',' << m[MissSource::kCold] << ','
     << m[MissSource::kConfCapc] << ',' << m[MissSource::kCoherence] << ','
     << k.upgrades << ',' << k.downgrades << ',' << k.remap_suppressed;
  return os.str();
}

std::string csv_row(const std::string& workload, const std::string& arch,
                    const core::RunResult& r, const prof::Profiler& prof) {
  const prof::LatencyHistogram h = prof.merged_end_to_end();
  std::ostringstream os;
  os << csv_row(workload, arch, r) << ',' << h.min() << ',' << h.p50() << ','
     << h.p99() << ',' << h.max();
  return os.str();
}

std::string csv_header_walltime() {
  return csv_header() + ",wall_ms,sim_rate";
}

std::string csv_row(const std::string& workload, const std::string& arch,
                    const core::SweepResult& sr) {
  std::ostringstream os;
  os << csv_row(workload, arch, sr.result) << ','
     << sr.timing.wall.value() / 1'000'000 << ','
     << static_cast<std::uint64_t>(sr.sim_rate_hz());
  return os.str();
}

}  // namespace ascoma::report
