// simbench_driver — the compiled half of the simulation benchmark.
//
//   simbench_driver run   --workload W --seed N [--trace]
//       one repetition of workload W; prints one JSON object: host times,
//       peak RSS, job/failure counts, the simulated-statistics digest,
//       per-layer counts, per-job simulated cycles, and (with --trace) the
//       spans the benchmark recorded around its calls into the library.
//   simbench_driver drive --workload W --seed N
//       the outside-in module drives for workload W; prints one JSON object
//       of nanoseconds per operation for each layer, with its spans.
//
// run.py launches each repetition as a fresh process (so peak RSS belongs
// to one repetition), aggregates medians and checks the outputs.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "drives.hh"
#include "rep.hh"
#include "spans.hh"
#include "workloads.hh"

namespace {

using simbench::Tracer;

/// `s` as a JSON string literal (control characters become spaces).
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + '"';
}

/// `items` (each already JSON) as a JSON array.
std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ',';
    out += item;
  }
  return out + "]";
}

/// Minimal JSON object writer: keys in insertion order, doubles with all
/// their digits.
class JsonObject {
 public:
  JsonObject() { os_.precision(17); }
  JsonObject& num(const std::string& k, double v) {
    key(k);
    os_ << v;
    return *this;
  }
  JsonObject& num(const std::string& k, std::uint64_t v) {
    key(k);
    os_ << v;
    return *this;
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    return raw(k, json_string(v));
  }
  JsonObject& raw(const std::string& k, const std::string& json) {
    key(k);
    os_ << json;
    return *this;
  }
  std::string done() { return os_.str() + "}"; }

 private:
  void key(const std::string& k) {
    os_ << (first_ ? "{" : ",") << json_string(k) << ':';
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string spans_json(const Tracer& tracer) {
  std::vector<std::string> spans;
  for (const simbench::SpanStat& s : tracer.stats())
    spans.push_back(JsonObject()
                        .str("name", s.name)
                        .num("count", s.count)
                        .num("total_s", static_cast<double>(s.total_ns) * 1e-9)
                        .num("self_s", static_cast<double>(s.self_ns) * 1e-9)
                        .done());
  return json_array(spans);
}

std::string rep_json(const simbench::RepResult& r, const Tracer& tracer) {
  const ascoma::NodeStats& t = r.totals;
  const ascoma::KernelStats& k = t.kernel;
  using ascoma::MissSource;
  using ascoma::TimeBucket;
  JsonObject counts;
  counts.num("accesses", t.shared_loads + t.shared_stores)
      .num("l1_hits", t.l1_hits)
      .num("upgrades_issued", t.upgrades_issued)
      .num("misses", t.misses.total())
      .num("local_misses", t.misses.local())
      .num("remote_misses", t.misses.remote())
      .num("rac_hits", t.misses[MissSource::kRac])
      .num("scoma_hits", t.misses[MissSource::kScoma])
      .num("refetch_misses", t.misses[MissSource::kConfCapc])
      .num("net_messages", r.net_messages)
      .num("invalidations", r.invalidations)
      .num("forwards", r.forwards)
      .num("writebacks", r.writebacks)
      .num("page_faults", k.page_faults)
      .num("scoma_allocs", k.scoma_allocs)
      .num("upgrades", k.upgrades)
      .num("downgrades", k.downgrades)
      .num("relocation_interrupts", k.relocation_interrupts)
      .num("lines_flushed", k.lines_flushed)
      .num("daemon_runs", k.daemon_runs)
      .num("daemon_pages_scanned", k.daemon_pages_scanned)
      .num("daemon_pages_reclaimed", k.daemon_pages_reclaimed)
      .num("threshold_raises", k.threshold_raises)
      .num("remap_suppressed", k.remap_suppressed)
      .num("lock_acquisitions", r.lock_acquisitions)
      .num("barrier_episodes", r.barrier_episodes)
      .num("sim_time_total", t.time.total().value())
      .num("sim_time_kernel_ovhd", t.time[TimeBucket::kKernelOvhd].value())
      .num("sim_time_sync", t.time[TimeBucket::kSync].value());

  std::vector<std::string> points;
  std::uint64_t cycles = 0;
  for (const simbench::JobPoint& p : r.points) {
    points.push_back(JsonObject()
                         .str("program", p.program)
                         .str("arch", ascoma::to_string(p.arch))
                         .num("pressure", p.pressure)
                         .num("cycles", p.cycles)
                         .done());
    cycles += p.cycles;
  }
  std::vector<std::string> errors;
  for (const std::string& e : r.errors) errors.push_back(json_string(e));

  JsonObject o;
  o.num("wall_s", r.wall_s)
      .num("setup_s", r.setup_s)
      .num("run_s", r.run_s)
      .num("busy_s", r.busy_s)
      .num("workers", std::uint64_t{r.workers})
      .num("jobs", r.jobs)
      .num("failed", r.failed)
      .raw("errors", json_array(errors))
      .str("digest", r.digest)
      .num("peak_rss_bytes", r.peak_rss_bytes)
      .num("calib_s", r.calib_s)
      .num("cycles", cycles)
      .raw("counts", counts.done())
      .raw("points", json_array(points));
  if (tracer.on()) o.raw("spans", spans_json(tracer));
  return o.done();
}

std::string drive_json(const simbench::DriveResult& d, const Tracer& tracer) {
  JsonObject ns;
  for (const auto& [name, value] : d.ns_per_op) ns.num(name, value);
  return JsonObject()
      .num("job_ops", d.job_ops)
      .raw("ns_per_op", ns.done())
      .raw("spans", spans_json(tracer))
      .done();
}

int usage() {
  std::cerr << "usage: simbench_driver run|drive --workload NAME --seed N "
               "[--trace]\n  workloads:";
  for (const std::string& n : simbench::bench_workload_names())
    std::cerr << ' ' << n;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--trace") {
      trace = true;
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();
  const auto w = simbench::make_bench_workload(workload, seed);
  if (!w) return usage();

  if (cmd == "run") {
    Tracer tracer(trace);
    const simbench::RepResult r = simbench::run_rep(*w, tracer);
    std::cout << rep_json(r, tracer) << std::endl;
    return 0;
  }
  if (cmd == "drive") {
    simbench::pin_to_one_cpu();
    Tracer tracer(true);
    const simbench::DriveResult d = simbench::run_drives(*w, tracer);
    std::cout << drive_json(d, tracer) << std::endl;
    return 0;
  }
  return usage();
}
