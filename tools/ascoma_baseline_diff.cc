// ascoma_baseline_diff — compare a candidate profile dump against a
// checked-in baseline and flag latency regressions (rules in prof/diff.hh):
//
//   ascoma_baseline_diff BASELINE CANDIDATE [options]
//
// Both inputs are profile directories (`ascoma --profile DIR`):
//   --p99-tol F      relative p99 growth that fails the gate (default 0.10)
//   --mean-tol F     relative mean growth that fails the gate (default 0.10)
//   --min-cycles N   absolute growth floor in cycles (default 16)
//   --min-count N    minimum samples per side to compare a row (default 100)
//
// Exit status: 0 when no row regressed, 1 on regressions, 2 on usage errors
// and on missing, unreadable or malformed inputs (a file where a directory
// is expected included) — so CI can gate directly on the tool.

#include <charconv>
#include <iostream>
#include <string>

#include "prof/diff.hh"

using ascoma::prof::DiffOptions;
using ascoma::prof::DiffReport;

namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << '\n';
  std::cerr << "usage: ascoma_baseline_diff BASELINE_DIR CANDIDATE_DIR"
               " [--p99-tol F] [--mean-tol F] [--min-cycles N]"
               " [--min-count N]\n";
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
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--p99-tol") {
      opts.p99_tol = parse_number<double>(value(), a);
    } else if (a == "--mean-tol") {
      opts.mean_tol = parse_number<double>(value(), a);
    } else if (a == "--min-cycles") {
      opts.min_cycles = parse_number<std::uint64_t>(value(), a);
    } else if (a == "--min-count") {
      opts.min_count = parse_number<std::uint64_t>(value(), a);
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

  const DiffReport rep =
      ascoma::prof::diff_baselines(baseline, candidate, opts);
  ascoma::prof::write_report(std::cout, rep, opts);
  if (!rep.ok()) return 2;
  return rep.regressions() > 0 ? 1 : 0;
}
