// ascoma_policycheck — exhaustive checker for the AS-COMA adaptive policy
// state machine (src/check/policy_model.*).
//
// Explores every reachable state of a small abstract configuration of the
// policy layer — free-pool level x per-page refetch counters x refetch
// threshold x daemon period x remap-enabled bit — driving the very
// arch::BackoffKernel the simulator executes, and checks the paper's §2
// claims: back-off monotonicity under sustained pressure, convergence to
// pure CC-NUMA behaviour when reclaim keeps failing, recovery of S-COMA
// mapping when pressure drops, and no upgrade while remapping is disabled.
// On violation, prints (and optionally writes) a BFS-minimal counterexample
// trace and exits 1.  Run it before and after any change to
// src/arch/backoff_kernel.hh or src/arch/ascoma.cc — CI does.
//
// Exit codes: 0 = all properties hold; 1 = violation found; 2 = usage error
// or search truncated (state cap hit before the space was exhausted).
//
// Examples:
//   ascoma_policycheck --nodes 2 --pages 2
//   ascoma_policycheck --nodes 1 --pages 4 --frames 2 --touches 6
//   ascoma_policycheck --mutation upgrade-while-disabled   # must report

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "check/policy_model.hh"
#include "parse_number.hh"

namespace {

namespace check = ascoma::check;

void usage(std::ostream& os) {
  os << "usage: ascoma_policycheck [options]\n"
        "  --nodes N            nodes in the model, 1..4 (default 2)\n"
        "  --pages N            remote pages per node, 1..4 (default 2)\n"
        "  --frames N           S-COMA pool frames per node, 1..3 "
        "(default 1)\n"
        "  --touches N          page-touch budget per node, 0..255 "
        "(default 4)\n"
        "  --daemon-runs N      pageout-daemon budget per node, 0..255 "
        "(default 6)\n"
        "  --mutation NAME      check a known-bad policy mutation\n"
        "                       (none|threshold-never-raised|"
        "period-not-lengthened|\n"
        "                        upgrade-while-disabled|upgrade-ignores-pool|"
        "thrashing-sticky)\n"
        "  --dfs                depth-first search (default: BFS, minimal "
        "traces)\n"
        "  --full-interleaving  explore the full node product (default: "
        "node-ordered\n"
        "                       persistent set; nodes share no policy "
        "state)\n"
        "  --max-states N       visited-state cap (default 2000000)\n"
        "  --trace-out PATH     write the counterexample trace to PATH\n"
        "  --quiet              print verdict lines only\n";
}

struct Args {
  check::PolicyCheckConfig cfg;
  check::ExploreOptions opts;
  std::string trace_out;
  bool quiet = false;
};

[[noreturn]] void usage_error(const std::string& error) {
  std::cerr << "error: " << error << "\n\n";
  usage(std::cerr);
  std::exit(2);
}

template <typename T>
T parse_or_exit(const char* v, const std::string& what) {
  const std::optional<T> n = ascoma::cli::parse_number<T>(v);
  if (!n) usage_error("bad value for " + what + ": '" + v + "'");
  return *n;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    auto u32 = [&]() { return parse_or_exit<std::uint32_t>(value(), arg); };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (arg == "--nodes") {
      a.cfg.nodes = u32();
    } else if (arg == "--pages") {
      a.cfg.pages_per_node = u32();
    } else if (arg == "--frames") {
      a.cfg.pool_frames = u32();
    } else if (arg == "--touches") {
      a.cfg.touches = u32();
    } else if (arg == "--daemon-runs") {
      a.cfg.daemon_runs = u32();
    } else if (arg == "--mutation") {
      const char* v = value();
      if (!check::parse_policy_mutation(v, &a.cfg.mutation))
        usage_error(std::string("unknown mutation: ") + v);
    } else if (arg == "--dfs") {
      a.opts.dfs = true;
    } else if (arg == "--full-interleaving") {
      a.cfg.ordered = false;
    } else if (arg == "--max-states") {
      a.opts.max_states = parse_or_exit<std::uint64_t>(value(), arg);
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else {
      usage_error("unknown option: " + arg);
    }
  }
  const std::string why = a.cfg.range_error();
  if (!why.empty()) usage_error(why);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);

  const check::PolicyModel model(a.cfg);
  const check::ExploreResult res = check::explore_model(model, a.opts);

  std::cout << "[ascoma-policy] nodes=" << a.cfg.nodes
            << " pages=" << a.cfg.pages_per_node
            << " frames=" << a.cfg.pool_frames
            << " touches=" << a.cfg.touches
            << " daemon-runs=" << a.cfg.daemon_runs
            << " mutation=" << check::to_string(a.cfg.mutation) << "\n";
  if (a.quiet) {
    std::cout << (res.ok ? (res.truncated ? "INCONCLUSIVE" : "PASS")
                         : "VIOLATION")
              << ": " << res.states << " states\n";
    if (!res.ok) std::cout << "  " << res.violation << "\n";
  } else {
    std::cout << res.report();
  }

  if (!res.ok && !a.trace_out.empty()) {
    std::ofstream out(a.trace_out);
    if (!out) {
      std::cerr << "cannot write " << a.trace_out << "\n";
      return 2;
    }
    out << "ascoma_policycheck counterexample\n"
        << "nodes=" << a.cfg.nodes << " pages=" << a.cfg.pages_per_node
        << " frames=" << a.cfg.pool_frames << " touches=" << a.cfg.touches
        << " daemon-runs=" << a.cfg.daemon_runs
        << " mutation=" << check::to_string(a.cfg.mutation) << "\n\n"
        << res.report();
    std::cout << "counterexample written to " << a.trace_out << "\n";
  }

  if (!res.ok) return 1;
  return res.truncated ? 2 : 0;
}
