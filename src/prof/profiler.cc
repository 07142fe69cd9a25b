#include "prof/profiler.hh"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <utility>

#include "obs/export.hh"

namespace ascoma::prof {

namespace {

constexpr std::uint64_t kNeverEpoch = ~std::uint64_t{0};

/// (node, raise-count) key identifying one node's current back-off epoch.
std::uint64_t epoch_key(NodeId node, std::uint64_t raises) {
  return (static_cast<std::uint64_t>(node.value()) << 32) ^ raises;
}

void json_hist(std::ostream& os, const LatencyHistogram& h) {
  os << "{\"count\":" << h.count() << ",\"sum\":" << h.sum()
     << ",\"min\":" << h.min() << ",\"p50\":" << h.p50()
     << ",\"p90\":" << h.p90() << ",\"p99\":" << h.p99()
     << ",\"max\":" << h.max() << '}';
}

void csv_hist(std::ostream& os, const char* cls, const char* component,
              const LatencyHistogram& h) {
  os << obs::csv_field(cls) << ',' << obs::csv_field(component) << ','
     << h.count() << ',' << h.sum() << ',' << h.min() << ',' << h.p50() << ','
     << h.p90() << ',' << h.p99() << ',' << h.max() << '\n';
}

}  // namespace

const char* to_string(Component c) {
  switch (c) {
    case Component::kL1: return "l1";
    case Component::kBus: return "bus";
    case Component::kRac: return "rac";
    case Component::kEngine: return "engine";
    case Component::kDirectory: return "directory";
    case Component::kDram: return "dram";
    case Component::kNetFabric: return "net_fabric";
    case Component::kNetQueue: return "net_queue";
    case Component::kBackoff: return "backoff";
    case Component::kInvalStall: return "inval_stall";
    case Component::kVmFault: return "vm_fault";
    case Component::kVmKernel: return "vm_kernel";
  }
  return "?";
}

const char* to_string(AccessClass c) {
  switch (c) {
    case AccessClass::kL1Hit: return "l1_hit";
    case AccessClass::kLocalHome: return "local_home";
    case AccessClass::kScomaHit: return "scoma_hit";
    case AccessClass::kRacHit: return "rac_hit";
    case AccessClass::kOwnership: return "ownership";
    case AccessClass::kRemoteCold: return "remote_cold";
    case AccessClass::kRemoteCoherence: return "remote_coherence";
    case AccessClass::kRemoteRefetch: return "remote_refetch";
    case AccessClass::kUpgradeRefetch: return "upgrade_refetch";
  }
  return "?";
}

Profiler::Profiler() = default;

void Profiler::set_meta(std::string workload, std::string arch,
                        double pressure, std::uint64_t seed) {
  workload_ = std::move(workload);
  arch_ = std::move(arch);
  pressure_ = pressure;
  seed_ = seed;
}

void Profiler::begin_access(Cycle) {
  scratch_.fill(Cycle{0});
  in_access_ = true;
}

void Profiler::end_access(AccessClass cls, VPageId p, Cycle end_to_end,
                          bool remote, bool refetch) {
  if (!in_access_) return;
  in_access_ = false;
  ++accesses_;

  Cycle attributed{0};
  const int ci = static_cast<int>(cls);
  for (int c = 0; c < kNumComponents; ++c) {
    attributed += scratch_[c];
    if (scratch_[c] > Cycle{0}) segments_[ci][c].record(scratch_[c].value());
  }
  if (attributed != end_to_end) ++mismatches_;
  end_to_end_[ci].record(end_to_end.value());

  if (p != kInvalidPage) {
    PageHeat& h = page(p);
    ++h.accesses;
    if (remote) ++h.remote_fetches;
    if (refetch) ++h.refetches;
  }
}

PageHeat& Profiler::page(VPageId p) {
  const std::size_t idx = p.value();
  if (idx >= pages_.size()) {
    pages_.resize(idx + 1);
    page_last_epoch_.resize(idx + 1, kNeverEpoch);
  }
  PageHeat& h = pages_[idx];
  h.page = p;
  return h;
}

void Profiler::fold(const obs::Event& e) {
  if (e.node.value() >= nodes_.size()) nodes_.resize(e.node.value() + 1);
  NodeHeat& n = nodes_[e.node.value()];
  switch (e.kind) {
    case obs::EventKind::kPageFault:
      ++page(e.page).faults;
      break;
    case obs::EventKind::kScomaAlloc:
      ++page(e.page).scoma_allocs;
      break;
    case obs::EventKind::kNumaAlloc:
      ++page(e.page).numa_allocs;
      break;
    case obs::EventKind::kUpgrade:
      ++page(e.page).upgrades;
      break;
    case obs::EventKind::kDowngrade: {
      PageHeat& h = page(e.page);
      ++h.downgrades;
      const std::uint64_t key = epoch_key(e.node, n.threshold_raises);
      if (page_last_epoch_[e.page.value()] != key) {
        page_last_epoch_[e.page.value()] = key;
        ++h.backoff_epochs;
      }
      break;
    }
    case obs::EventKind::kRemapSuppressed:
      ++page(e.page).suppressed;
      ++n.suppressed;
      break;
    case obs::EventKind::kThresholdRaise:
      ++n.threshold_raises;
      n.last_threshold = e.a;
      break;
    case obs::EventKind::kThresholdDrop:
      ++n.threshold_drops;
      n.last_threshold = e.a;
      break;
    case obs::EventKind::kDaemonRun:
      ++n.daemon_runs;
      if (e.c == 0) ++n.daemon_failures;
      break;
    // Machine-wide protocol and robustness events carry no page heat;
    // RunResult's counters and the event ring's tallies count them.
    case obs::EventKind::kRelocInterrupt:
    case obs::EventKind::kDirInvalidation:
    case obs::EventKind::kDirForward:
    case obs::EventKind::kBarrierRelease:
    case obs::EventKind::kFaultInjected:
    case obs::EventKind::kNack:
    case obs::EventKind::kRetry:
    case obs::EventKind::kWatchdogTrip:
    case obs::EventKind::kSweepStraggler:
      break;
  }
  // No default: -Wswitch (promoted by ASCOMA_WERROR) forces a fold for every
  // new EventKind; tools/lint_protocol.py checks the same property statically.
}

LatencyHistogram Profiler::merged_end_to_end() const {
  LatencyHistogram all;
  for (const auto& h : end_to_end_) all.merge(h);
  return all;
}

std::uint64_t Profiler::component_cycles(Component c) const {
  std::uint64_t total = 0;
  for (int cls = 0; cls < kNumAccessClasses; ++cls)
    total += segments_[cls][static_cast<int>(c)].sum();
  return total;
}

std::vector<PageHeat> Profiler::page_heat() const {
  std::vector<PageHeat> out;
  for (const PageHeat& h : pages_)
    if (h.any()) out.push_back(h);
  return out;
}

// ---- export ----------------------------------------------------------------

std::string Profiler::latency_csv_header() {
  return "class,component,count,sum,min,p50,p90,p99,max";
}

std::string Profiler::heat_csv_header() {
  return "page,accesses,faults,scoma_allocs,numa_allocs,upgrades,downgrades,"
         "suppressed,refetches,remote_fetches,backoff_epochs";
}

void Profiler::write_latency_csv(std::ostream& os) const {
  os << latency_csv_header() << '\n';
  csv_hist(os, "all", "total", merged_end_to_end());
  for (int cls = 0; cls < kNumAccessClasses; ++cls) {
    const auto ac = static_cast<AccessClass>(cls);
    if (end_to_end_[cls].count() == 0) continue;
    csv_hist(os, to_string(ac), "total", end_to_end_[cls]);
    for (int c = 0; c < kNumComponents; ++c) {
      const auto& h = segments_[cls][c];
      if (h.count() == 0) continue;
      csv_hist(os, to_string(ac), to_string(static_cast<Component>(c)), h);
    }
  }
}

void Profiler::write_heat_csv(std::ostream& os) const {
  os << heat_csv_header() << '\n';
  for (const PageHeat& h : page_heat()) {
    os << h.page << ',' << h.accesses << ',' << h.faults << ','
       << h.scoma_allocs << ',' << h.numa_allocs << ',' << h.upgrades << ','
       << h.downgrades << ',' << h.suppressed << ',' << h.refetches << ','
       << h.remote_fetches << ',' << h.backoff_epochs << '\n';
  }
}

void Profiler::write_latency_json(std::ostream& os) const {
  os << "{\"schema\":\"ascoma.prof.latency/1\",\"workload\":\""
     << obs::json_escape(workload_) << "\",\"arch\":\""
     << obs::json_escape(arch_) << "\",\"accesses\":" << accesses_
     << ",\"attribution_mismatches\":" << mismatches_ << ",\"all\":";
  json_hist(os, merged_end_to_end());
  os << ",\"classes\":[";
  bool first = true;
  for (int cls = 0; cls < kNumAccessClasses; ++cls) {
    if (end_to_end_[cls].count() == 0) continue;
    if (!first) os << ',';
    first = false;
    os << "\n{\"class\":\"" << to_string(static_cast<AccessClass>(cls))
       << "\",\"total\":";
    json_hist(os, end_to_end_[cls]);
    os << ",\"components\":[";
    bool cfirst = true;
    for (int c = 0; c < kNumComponents; ++c) {
      const auto& h = segments_[cls][c];
      if (h.count() == 0) continue;
      if (!cfirst) os << ',';
      cfirst = false;
      os << "{\"component\":\"" << to_string(static_cast<Component>(c))
         << "\",\"hist\":";
      json_hist(os, h);
      os << '}';
    }
    os << "]}";
  }
  os << "\n]}\n";
}

void Profiler::write_heat_json(std::ostream& os) const {
  os << "{\"schema\":\"ascoma.prof.heat/1\",\"pages\":[";
  bool first = true;
  for (const PageHeat& h : page_heat()) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"page\":" << h.page << ",\"accesses\":" << h.accesses
       << ",\"faults\":" << h.faults << ",\"scoma_allocs\":" << h.scoma_allocs
       << ",\"numa_allocs\":" << h.numa_allocs
       << ",\"upgrades\":" << h.upgrades << ",\"downgrades\":" << h.downgrades
       << ",\"suppressed\":" << h.suppressed
       << ",\"refetches\":" << h.refetches
       << ",\"remote_fetches\":" << h.remote_fetches
       << ",\"backoff_epochs\":" << h.backoff_epochs << '}';
  }
  os << "\n],\"nodes\":[";
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const NodeHeat& h = nodes_[n];
    if (n) os << ',';
    os << "\n{\"node\":" << n
       << ",\"threshold_raises\":" << h.threshold_raises
       << ",\"threshold_drops\":" << h.threshold_drops
       << ",\"daemon_runs\":" << h.daemon_runs
       << ",\"daemon_failures\":" << h.daemon_failures
       << ",\"suppressed\":" << h.suppressed
       << ",\"last_threshold\":" << h.last_threshold << '}';
  }
  os << "\n]}\n";
}

void Profiler::write_summary_json(std::ostream& os) const {
  // Integers only (pressure as rounded percent): the dump must be
  // byte-stable across toolchains so CI can diff against committed
  // baselines.
  const auto pct =
      static_cast<std::uint64_t>(pressure_ * 100.0 + 0.5);
  os << "{\"schema\":\"ascoma.prof.summary/1\",\"workload\":\""
     << obs::json_escape(workload_) << "\",\"arch\":\""
     << obs::json_escape(arch_) << "\",\"pressure_pct\":" << pct
     << ",\"seed\":" << seed_ << ",\"cycles\":" << run_cycles_
     << ",\"accesses\":" << accesses_
     << ",\"attribution_mismatches\":" << mismatches_ << ",\"classes\":{";
  bool first = true;
  for (int cls = 0; cls < kNumAccessClasses; ++cls) {
    if (end_to_end_[cls].count() == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << to_string(static_cast<AccessClass>(cls))
       << "\":" << end_to_end_[cls].count();
  }
  os << "}}\n";
}

bool Profiler::write_profile(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  const auto write = [&](const char* name, auto&& fn) {
    std::ofstream os(std::filesystem::path(dir) / name, std::ios::trunc);
    if (!os) return false;
    fn(os);
    return os.good();
  };
  return write("latency.csv",
               [&](std::ostream& os) { write_latency_csv(os); }) &&
         write("latency.json",
               [&](std::ostream& os) { write_latency_json(os); }) &&
         write("heat.csv", [&](std::ostream& os) { write_heat_csv(os); }) &&
         write("heat.json", [&](std::ostream& os) { write_heat_json(os); }) &&
         write("summary.json",
               [&](std::ostream& os) { write_summary_json(os); });
}

}  // namespace ascoma::prof
