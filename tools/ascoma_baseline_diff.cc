// ascoma_baseline_diff — compare a candidate against a checked-in baseline
// and flag regressions.  The inputs pick the rules (prof/diff.hh):
//
//   ascoma_baseline_diff BASELINE CANDIDATE [options]
//
// Two profile directories (`ascoma --profile DIR`) get the latency rules:
//   --p99-tol F      relative p99 growth that fails the gate (default 0.10)
//   --mean-tol F     relative mean growth that fails the gate (default 0.10)
//   --min-cycles N   absolute growth floor in cycles (default 16)
//   --min-count N    minimum samples per side to compare a row (default 100)
//
// Two BENCH_simspeed.json files (ascoma.simspeed/1, written by the bench
// binaries) get the simulator-speed rules:
//   --rate-tol F     relative sim-rate *drop* that fails the gate
//                    (default 0.25; growth never fails)
//   --rss-tol F      relative peak-RSS growth that fails the gate (default 0.50)
//   --allocs-tol F   relative allocation-count growth that fails (default 0.25)
//   --min-wall-ms N  rows where either side ran shorter than this are too
//                    noisy for the rate check and are skipped (default 50)
//
// A flag of the other input kind is a usage error.
//
// Exit status: 0 when no row regressed, 1 on regressions, 2 on usage errors
// and unreadable, malformed or mixed-kind inputs — so CI can gate directly
// on the tool.

#include <charconv>
#include <iostream>
#include <string>

#include "prof/diff.hh"

using ascoma::prof::BaselineKind;
using ascoma::prof::DiffOptions;
using ascoma::prof::DiffReport;

namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << '\n';
  std::cerr << "usage: ascoma_baseline_diff BASELINE CANDIDATE\n"
               "  profile directories: [--p99-tol F] [--mean-tol F]"
               " [--min-cycles N] [--min-count N]\n"
               "  simspeed files:      [--rate-tol F] [--rss-tol F]"
               " [--allocs-tol F] [--min-wall-ms N]\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& s, const std::string& what) {
  T value{};
  const auto r = std::from_chars(s.data(), s.data() + s.size(), value);
  if (r.ec != std::errc{} || r.ptr != s.data() + s.size())
    usage("bad value for " + what + ": '" + s + "'");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline, candidate;
  DiffOptions opts;
  // The last flag seen of each rule set, to reject one the inputs don't use.
  std::string profile_flag, simspeed_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string& seen) -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      seen = a;
      return argv[++i];
    };
    if (a == "--p99-tol") {
      opts.p99_tol = parse_number<double>(value(profile_flag), a);
    } else if (a == "--mean-tol") {
      opts.mean_tol = parse_number<double>(value(profile_flag), a);
    } else if (a == "--min-cycles") {
      opts.min_cycles = parse_number<std::uint64_t>(value(profile_flag), a);
    } else if (a == "--min-count") {
      opts.min_count = parse_number<std::uint64_t>(value(profile_flag), a);
    } else if (a == "--rate-tol") {
      opts.rate_tol = parse_number<double>(value(simspeed_flag), a);
    } else if (a == "--rss-tol") {
      opts.rss_tol = parse_number<double>(value(simspeed_flag), a);
    } else if (a == "--allocs-tol") {
      opts.allocs_tol = parse_number<double>(value(simspeed_flag), a);
    } else if (a == "--min-wall-ms") {
      opts.min_wall_ms = parse_number<std::uint64_t>(value(simspeed_flag), a);
    } else if (a == "--help" || a == "-h") {
      usage();
    } else if (!a.empty() && a[0] == '-') {
      usage("unknown option: " + a);
    } else if (baseline.empty()) {
      baseline = a;
    } else if (candidate.empty()) {
      candidate = a;
    } else {
      usage("too many positional arguments");
    }
  }
  if (baseline.empty() || candidate.empty())
    usage("need a baseline and a candidate");
  const bool profile =
      ascoma::prof::baseline_kind(baseline) == BaselineKind::kProfile;
  const std::string& foreign = profile ? simspeed_flag : profile_flag;
  if (!foreign.empty())
    usage(foreign + " does not apply to " +
          (profile ? "profile directories" : "simspeed files"));

  const DiffReport rep =
      ascoma::prof::diff_baselines(baseline, candidate, opts);
  ascoma::prof::write_report(std::cout, rep, opts);
  if (!rep.ok()) return 2;
  return rep.regressions() > 0 ? 1 : 0;
}
