// ascoma_sim — command-line front end to the AS-COMA machine simulator.
//
//   ascoma_sim --workload em3d --arch ascoma --pressure 90
//   ascoma_sim --workload radix --arch all --pressure 10,50,90 --csv out.csv
//   ascoma_sim --trace /tmp/app.trace --arch ccnuma --pressure 50
//
// Options:
//   --workload NAME     barnes|em3d|fft|lu|ocean|radix (default em3d)
//   --trace PATH        drive the machine from a recorded trace instead
//   --arch A[,B...]     ccnuma|scoma|rnuma|vcnuma|ascoma|all (default ascoma)
//   --pressure P[,Q..]  memory pressures in percent (default 50)
//   --scale S           workload iteration scale (default 1.0)
//   --threshold N       initial relocation threshold (default 64)
//   --seed N            workload RNG seed
//   --no-backoff        disable AS-COMA's adaptive back-off
//   --no-scoma-first    disable AS-COMA's S-COMA-preferred allocation
//   --store-buffer N    non-blocking stores with an N-entry buffer
//   --threads N         sweep parallelism (default: hardware)
//   --csv PATH          also append results as CSV rows
//   --verbose           per-node/kernel detail
//
// Observability (single arch/pressure runs only):
//   --events PATH       dump the cycle-stamped event stream as JSONL
//   --perfetto PATH     dump a Chrome trace-event JSON (ui.perfetto.dev)
//   --metrics PATH      dump the gauge time series as CSV
//   --sample-every N    gauge sampling period in cycles (default 100000)
//   --profile DIR       attribute every demand access's latency to hardware
//                       components and dump histograms + per-page heat map
//                       into DIR (latency.csv, heat.csv, summary.json)
//   A failed or interrupted run still writes its --events/--perfetto/--metrics
//   files before exiting 1 or 128+signal, for post-mortem analysis.
//
// Sweep telemetry (ARCHITECTURE.md §14, measuring the simulator):
//   --progress          single-line JSON heartbeat on stderr while the
//                       sweep runs (jobs done/total, sim-rate, ETA)
//   --progress-interval-ms N   heartbeat period (default 1000)
//
// Graceful shutdown (ARCHITECTURE.md §14):
//   SIGINT/SIGTERM drain in-flight jobs, write the event exports, and exit
//   128+signal (a --trace grid stops when its current run ends).
//
// Fault injection & robustness (defaults leave results bit-identical):
//   --fault-drop P        per-message drop probability (0..1)
//   --fault-dup P         per-message duplication probability (0..1)
//   --fault-jitter P      per-message jitter probability (0..1)
//   --fault-jitter-cycles N   max injected jitter per message (default 64)
//   --fault-seed N        fault RNG seed (default: derived from --seed)
//   --watchdog-cycles N   fail any transaction outstanding > N cycles
//   --nack-busy N         homes NACK requests when backlogged > N cycles
//   --check-invariants / --no-check-invariants
//                         post-run coherence sweep (default on)

#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/shutdown.hh"
#include "common/table.hh"
#include "core/machine.hh"
#include "core/sweep.hh"
#include "obs/export.hh"
#include "obs/probe.hh"
#include "parse_number.hh"
#include "report/report.hh"
#include "trace/trace.hh"
#include "workload/workload.hh"

using namespace ascoma;

namespace {

struct Options {
  std::string workload = "em3d";
  std::string trace_path;
  std::vector<ArchModel> archs = {ArchModel::kAsComa};
  std::vector<double> pressures = {0.5};
  double scale = 1.0;
  std::optional<std::uint32_t> threshold;
  std::optional<std::uint64_t> seed;
  bool backoff = true;
  bool scoma_first = true;
  std::optional<std::uint32_t> store_buffer;
  unsigned threads = 0;
  std::string csv_path;
  bool verbose = false;
  std::string events_path;
  std::string perfetto_path;
  std::string metrics_path;
  std::string profile_dir;
  bool progress = false;
  std::uint32_t progress_interval_ms = 1000;
  Cycle sample_every{100'000};
  double fault_drop = 0.0;
  double fault_dup = 0.0;
  double fault_jitter = 0.0;
  std::optional<Cycle> fault_jitter_cycles;
  std::optional<std::uint64_t> fault_seed;
  Cycle watchdog_cycles{0};
  Cycle nack_busy{0};
  std::optional<bool> check_invariants;

  bool observing() const {
    return !events_path.empty() || !perfetto_path.empty() ||
           !metrics_path.empty();
  }
  bool profiling() const { return !profile_dir.empty(); }
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: ascoma_sim [--workload NAME | --trace PATH] [--arch LIST]\n"
      "                  [--pressure LIST] [--scale S] [--threshold N]\n"
      "                  [--seed N] [--no-backoff] [--no-scoma-first]\n"
      "                  [--store-buffer N] [--threads N] [--csv PATH]\n"
      "                  [--events PATH] [--perfetto PATH] [--metrics PATH]\n"
      "                  [--profile DIR] [--sample-every N] [--verbose]\n"
      "                  [--progress] [--progress-interval-ms N]\n"
      "                  [--fault-drop P] [--fault-dup P] [--fault-jitter P]\n"
      "                  [--fault-jitter-cycles N] [--fault-seed N]\n"
      "                  [--watchdog-cycles N] [--nack-busy N]\n"
      "                  [--check-invariants | --no-check-invariants]\n"
      "workloads:";
  for (const auto& n : workload::workload_names()) std::cerr << ' ' << n;
  std::cerr << "\narchitectures: ccnuma scoma rnuma vcnuma ascoma all\n";
  std::exit(2);
}

// ---- strict numeric parsing (reject garbage instead of reading it as 0) ----

template <typename T>
T parse_number(const std::string& s, const char* what) {
  const std::optional<T> v = cli::parse_number<T>(s);
  if (!v) usage(std::string("bad value for ") + what + ": '" + s + "'");
  return *v;
}

double parse_double(const std::string& s, const char* what) {
  return parse_number<double>(s, what);
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  return parse_number<std::uint64_t>(s, what);
}

std::uint32_t parse_u32(const std::string& s, const char* what) {
  const std::uint64_t v = parse_u64(s, what);
  if (v > std::numeric_limits<std::uint32_t>::max())
    usage(std::string("value out of range for ") + what + ": '" + s + "'");
  return static_cast<std::uint32_t>(v);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      o.workload = need_value(i);
    } else if (a == "--trace") {
      o.trace_path = need_value(i);
    } else if (a == "--arch") {
      o.archs.clear();
      for (const auto& name : split(need_value(i), ',')) {
        if (name == "all") {
          o.archs = {ArchModel::kCcNuma, ArchModel::kScoma, ArchModel::kRNuma,
                     ArchModel::kVcNuma, ArchModel::kAsComa};
          break;
        }
        ArchModel m;
        if (!parse_arch_model(name, &m)) usage("unknown arch: " + name);
        o.archs.push_back(m);
      }
    } else if (a == "--pressure") {
      o.pressures.clear();
      for (const auto& p : split(need_value(i), ',')) {
        const double v = parse_double(p, "--pressure") / 100.0;
        if (!(v > 0.0 && v <= 1.0)) usage("bad pressure: " + p);
        o.pressures.push_back(v);
      }
      if (o.pressures.empty()) usage("empty pressure list");
    } else if (a == "--scale") {
      o.scale = parse_double(need_value(i), "--scale");
      if (!(o.scale > 0.0 && std::isfinite(o.scale))) usage("bad scale");
    } else if (a == "--threshold") {
      o.threshold = parse_u32(need_value(i), "--threshold");
    } else if (a == "--seed") {
      o.seed = parse_u64(need_value(i), "--seed");
    } else if (a == "--no-backoff") {
      o.backoff = false;
    } else if (a == "--no-scoma-first") {
      o.scoma_first = false;
    } else if (a == "--store-buffer") {
      o.store_buffer = parse_u32(need_value(i), "--store-buffer");
    } else if (a == "--threads") {
      o.threads = parse_u32(need_value(i), "--threads");
    } else if (a == "--csv") {
      o.csv_path = need_value(i);
    } else if (a == "--events") {
      o.events_path = need_value(i);
    } else if (a == "--perfetto") {
      o.perfetto_path = need_value(i);
    } else if (a == "--metrics") {
      o.metrics_path = need_value(i);
    } else if (a == "--profile") {
      o.profile_dir = need_value(i);
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--progress-interval-ms") {
      o.progress_interval_ms =
          parse_u32(need_value(i), "--progress-interval-ms");
      if (o.progress_interval_ms == 0)
        usage("--progress-interval-ms must be > 0");
    } else if (a == "--sample-every") {
      o.sample_every = Cycle{parse_u64(need_value(i), "--sample-every")};
      if (o.sample_every == Cycle{0}) usage("--sample-every must be > 0");
    } else if (a == "--fault-drop") {
      o.fault_drop = parse_double(need_value(i), "--fault-drop");
      if (!(o.fault_drop >= 0.0 && o.fault_drop <= 1.0))
        usage("--fault-drop must be in [0,1]");
    } else if (a == "--fault-dup") {
      o.fault_dup = parse_double(need_value(i), "--fault-dup");
      if (!(o.fault_dup >= 0.0 && o.fault_dup <= 1.0))
        usage("--fault-dup must be in [0,1]");
    } else if (a == "--fault-jitter") {
      o.fault_jitter = parse_double(need_value(i), "--fault-jitter");
      if (!(o.fault_jitter >= 0.0 && o.fault_jitter <= 1.0))
        usage("--fault-jitter must be in [0,1]");
    } else if (a == "--fault-jitter-cycles") {
      o.fault_jitter_cycles = Cycle{parse_u64(need_value(i), "--fault-jitter-cycles")};
      if (*o.fault_jitter_cycles == Cycle{0})
        usage("--fault-jitter-cycles must be > 0");
    } else if (a == "--fault-seed") {
      o.fault_seed = parse_u64(need_value(i), "--fault-seed");
    } else if (a == "--watchdog-cycles") {
      o.watchdog_cycles = Cycle{parse_u64(need_value(i), "--watchdog-cycles")};
    } else if (a == "--nack-busy") {
      o.nack_busy = Cycle{parse_u64(need_value(i), "--nack-busy")};
    } else if (a == "--check-invariants") {
      o.check_invariants = true;
    } else if (a == "--no-check-invariants") {
      o.check_invariants = false;
    } else if (a == "--verbose") {
      o.verbose = true;
    } else if (a == "--help" || a == "-h") {
      usage();
    } else {
      usage("unknown option: " + a);
    }
  }
  return o;
}

/// Writes each requested --events/--perfetto/--metrics file from the run's
/// event ring, naming each written file on `log`.  The one export step of
/// every exit: a successful run logs to stdout, a failed or interrupted one
/// to stderr, so the trace leading up to the failure survives it.  Returns
/// false when a file could not be written; true with no ring.
bool write_exports(const Options& opt, const obs::EventSink* sink,
                   std::uint32_t nodes, std::ostream& log) {
  if (!sink) return true;
  bool ok = true;
  auto note = [&](const std::string& path, const char* what, bool written) {
    if (written) {
      log << what << " written to " << path << '\n';
    } else {
      std::cerr << "cannot write " << what << " file: " << path << '\n';
      ok = false;
    }
  };
  if (!opt.events_path.empty())
    note(opt.events_path, "events JSONL",
         obs::write_jsonl_file(opt.events_path, *sink));
  if (!opt.perfetto_path.empty())
    note(opt.perfetto_path, "Perfetto trace",
         obs::write_perfetto_file(opt.perfetto_path, *sink, nodes));
  if (!opt.metrics_path.empty())
    note(opt.metrics_path, "metrics CSV",
         obs::write_metrics_csv_file(opt.metrics_path, *sink));
  if (sink->dropped() > 0)
    std::cerr << "warning: event buffer overflow, " << sink->dropped()
              << " events dropped (tallies remain exact)\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  if ((opt.observing() || opt.profiling()) &&
      (opt.archs.size() > 1 || opt.pressures.size() > 1))
    usage(
        "--events/--perfetto/--metrics/--profile need a single arch and "
        "pressure");
  if (!opt.trace_path.empty() && opt.progress)
    usage("--progress needs a generated workload, not --trace");

  install_shutdown_handler();

  // Resolve the workload (generator or trace).
  std::unique_ptr<workload::Workload> wl;
  if (!opt.trace_path.empty()) {
    try {
      wl = std::make_unique<trace::TraceWorkload>(opt.trace_path);
    } catch (const std::exception& e) {
      std::cerr << "cannot load trace: " << e.what() << '\n';
      return 1;
    }
  } else {
    wl = workload::make_workload(opt.workload, opt.scale);
    if (!wl) usage("unknown workload: " + opt.workload);
  }

  MachineConfig base;
  // One probe watches the run.  It holds an event ring only when an export
  // (--events/--perfetto/--metrics) will read one, and a profiler only for
  // --profile; the profiler folds its heat map from the probe's events, so
  // --profile alone needs no ring.
  std::optional<obs::EventSink> sink;
  if (opt.observing()) {
    sink.emplace();
    base.sample_every = opt.sample_every;
  }
  std::optional<prof::Profiler> profiler;
  if (opt.profiling()) profiler.emplace();
  std::optional<obs::Probe> probe;
  if (sink || profiler) {
    probe.emplace(profiler ? &*profiler : nullptr, sink ? &*sink : nullptr);
    base.probe = &*probe;
  }
  if (opt.threshold) base.refetch_threshold = *opt.threshold;
  if (opt.seed) base.seed = *opt.seed;
  base.ascoma_backoff = opt.backoff;
  base.ascoma_scoma_first = opt.scoma_first;
  if (opt.store_buffer) {
    base.blocking_stores = false;
    base.store_buffer_entries = *opt.store_buffer;
  }
  base.fault_drop = opt.fault_drop;
  base.fault_dup = opt.fault_dup;
  base.fault_jitter = opt.fault_jitter;
  if (opt.fault_jitter_cycles)
    base.fault_jitter_cycles = *opt.fault_jitter_cycles;
  if (opt.fault_seed) base.fault_seed = *opt.fault_seed;
  base.watchdog_cycles = opt.watchdog_cycles;
  base.nack_busy_cycles = opt.nack_busy;
  if (opt.check_invariants) base.check_invariants = *opt.check_invariants;

  // Every failure and interrupt exit writes the event exports first.
  const obs::EventSink* ring = sink ? &*sink : nullptr;
  auto fail = [&](int code) {
    write_exports(opt, ring, wl->nodes(), std::cerr);
    return code;
  };

  struct Row {
    ArchModel arch;
    double pressure;
    core::RunResult result;
  };
  std::vector<Row> rows;
  if (!opt.trace_path.empty()) {
    // In-process runs: a trace workload can't be reopened by name per sweep
    // job, so these drive one Machine per (arch, pressure).
    std::size_t runs = 0;
    for (ArchModel arch : opt.archs)
      runs += arch == ArchModel::kCcNuma ? 1 : opt.pressures.size();
    for (ArchModel arch : opt.archs) {
      for (double pressure : opt.pressures) {
        MachineConfig cfg = base;
        cfg.arch = arch;
        cfg.memory_pressure = pressure;
        try {
          rows.push_back({arch, pressure, core::simulate(cfg, *wl)});
        } catch (const std::exception& e) {
          std::cerr << "run failed (" << to_string(arch) << ", "
                    << pressure * 100 << "%): " << e.what() << '\n';
          return fail(1);
        }
        // Polled after every run, the last one too: like the sweep path, an
        // interrupted grid prints no partial table.
        if (shutdown_requested()) {
          std::cerr << "interrupted: " << rows.size() << '/' << runs
                    << " runs finished\n";
          return fail(128 + shutdown_signal());
        }
        if (arch == ArchModel::kCcNuma) break;  // pressure-independent
      }
    }
  } else {
    // Generated workloads go through the sweep runner: same job order (and
    // thus byte-identical CSV) as a serial loop, but with per-job wall-time
    // telemetry and an optional --progress heartbeat for free.
    std::vector<core::SweepJob> jobs;
    for (ArchModel arch : opt.archs) {
      for (double pressure : opt.pressures) {
        core::SweepJob j;
        j.config = base;
        j.config.arch = arch;
        j.config.memory_pressure = pressure;
        std::ostringstream label;
        label << to_string(arch) << '('
              << static_cast<int>(pressure * 100.0 + 0.5) << "%)";
        j.label = label.str();
        j.workload = opt.workload;
        j.workload_scale = opt.scale;
        jobs.push_back(std::move(j));
        if (arch == ArchModel::kCcNuma) break;  // pressure-independent
      }
    }
    core::SweepOptions sopts;
    sopts.threads = opt.threads;
    sopts.progress = opt.progress;
    sopts.progress_interval_ms = opt.progress_interval_ms;
    sopts.stop = shutdown_flag();
    std::vector<core::SweepResult> sweep;
    try {
      sweep = core::run_sweep(std::move(jobs), sopts);
    } catch (const std::exception& e) {
      std::cerr << "run failed: " << e.what() << '\n';
      return fail(1);
    }
    if (shutdown_requested()) {
      // Graceful shutdown: in-flight jobs drained; the table/CSV would be
      // partial, so skip them.
      std::size_t finished = 0;
      for (const auto& r : sweep)
        if (r.result.stats.parallel_cycles > Cycle{0}) ++finished;
      std::cerr << "interrupted: " << finished << '/' << sweep.size()
                << " jobs finished\n";
      return fail(128 + shutdown_signal());
    }
    rows.reserve(sweep.size());
    for (auto& r : sweep)
      rows.push_back({r.job.config.arch, r.job.config.memory_pressure,
                      std::move(r.result)});
  }

  Table t({"arch", "pressure", "cycles", "U-SH-MEM%", "K-OVERHD%", "SYNC%",
           "local miss%", "remote fetches", "upgrades", "suppressed"});
  for (const auto& r : rows) {
    const auto& time = r.result.stats.totals.time;
    const auto& m = r.result.stats.totals.misses;
    const auto& k = r.result.stats.totals.kernel;
    t.add_row({to_string(r.arch), Table::pct(r.pressure, 0),
               std::to_string(r.result.cycles().value()),
               Table::pct(time.frac(TimeBucket::kUserShared)),
               Table::pct(time.frac(TimeBucket::kKernelOvhd)),
               Table::pct(time.frac(TimeBucket::kSync)),
               Table::pct(m.total() ? static_cast<double>(m.local()) /
                                          static_cast<double>(m.total())
                                    : 0.0),
               std::to_string(m.remote()), std::to_string(k.upgrades),
               std::to_string(k.remap_suppressed)});
  }
  std::cout << "workload: " << wl->name() << "  (nodes: " << wl->nodes()
            << ", pages/node: " << wl->pages_per_node() << ")\n\n";
  t.print(std::cout);

  if (opt.verbose) {
    for (const auto& r : rows) {
      const auto& k = r.result.stats.totals.kernel;
      std::cout << "\n" << to_string(r.arch) << "(" << r.pressure * 100
                << "%): faults=" << k.page_faults
                << " scoma_allocs=" << k.scoma_allocs
                << " numa_allocs=" << k.numa_allocs
                << " upgrades=" << k.upgrades
                << " downgrades=" << k.downgrades
                << " daemon_runs=" << k.daemon_runs
                << " reclaim_failures=" << k.daemon_reclaim_failures
                << " threshold_raises=" << k.threshold_raises
                << " induced_cold=" << r.result.stats.totals.induced_cold_misses
                << " net_msgs=" << r.result.net_messages
                << " invals=" << r.result.directory_invalidations << '\n';
      // Printed only when the robustness features were exercised so the
      // zero-fault output stays byte-identical to prior releases.
      if (r.result.config.faults_configured() ||
          r.result.config.nack_busy_cycles > Cycle{0} ||
          r.result.config.watchdog_cycles > Cycles{0}) {
        std::cout << "  fault layer: injected=" << r.result.faults_injected
                  << " retransmits=" << r.result.net_retransmits
                  << " retries=" << r.result.net_retries
                  << " nacks=" << r.result.nacks << " invariants="
                  << (r.result.invariants_checked ? "checked" : "skipped")
                  << '\n';
      }
      std::cout << "  final thresholds:";
      for (auto th : r.result.final_threshold) std::cout << ' ' << th;
      std::cout << '\n';
      std::cout << "  "
                << report::backoff_trajectory(r.result) << '\n';
    }
  }

  if (!write_exports(opt, ring, wl->nodes(), std::cout)) return 1;

  if (profiler) {
    if (!profiler->write_profile(opt.profile_dir)) {
      std::cerr << "cannot write profile into " << opt.profile_dir << '\n';
      return 1;
    }
    const auto all = profiler->merged_end_to_end();
    std::cout << "\nprofile written to " << opt.profile_dir << " ("
              << profiler->accesses() << " accesses; end-to-end p50="
              << all.p50() << " p99=" << all.p99() << " max=" << all.max()
              << " cycles)\n";
    std::cout << "\n== end-to-end latency by access class (cycles) ==\n";
    report::latency_table(*profiler).print(std::cout);
    if (profiler->attribution_mismatches() > 0)
      std::cerr << "warning: " << profiler->attribution_mismatches()
                << " accesses with attribution mismatch\n";
  }

  if (!opt.csv_path.empty()) {
    const bool fresh = !std::ifstream(opt.csv_path).good();
    std::ofstream csv(opt.csv_path, std::ios::app);
    // With a profiler attached the run was single-config (enforced at parse
    // time), so every row gets the same profiler's latency columns.
    if (fresh) csv << report::csv_header(profiler.has_value()) << '\n';
    for (const auto& r : rows)
      csv << (profiler
                  ? report::csv_row(wl->name(), to_string(r.arch), r.result,
                                    *profiler)
                  : report::csv_row(wl->name(), to_string(r.arch), r.result))
          << '\n';
    // A failed open or write (e.g. a full disk) leaves the stream bad.
    if (!csv.flush()) {
      std::cerr << "cannot write CSV file: " << opt.csv_path << '\n';
      return 1;
    }
    std::cout << "\nCSV appended to " << opt.csv_path << '\n';
  }
  return 0;
}
