#include "prof/diff.hh"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "prof/profiler.hh"

namespace ascoma::prof {

namespace {

using Kind = DiffFinding::Kind;

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

bool split_fields(const std::string& line, std::vector<std::string>& out) {
  // Dump fields are identifiers and integers; a quote would mean the file is
  // not one of ours (csv_field only quotes when a delimiter is embedded).
  out.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    out.push_back(line.substr(start, comma - start));
    if (out.back().find('"') != std::string::npos) return false;
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

/// Read and parse one input file; on failure `error` names the file.
template <typename Doc>
bool load(const std::string& path, Doc& doc,
          bool (*parse)(const std::string&, Doc&, std::string&),
          std::string& error) {
  std::ifstream is(path);
  if (!is) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  if (!parse(ss.str(), doc, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

/// The growth check every gated column shares: beyond the relative
/// tolerance AND by at least the absolute floor.
bool grew(double base, double cand, double tol, double floor) {
  return cand > base * (1.0 + tol) && cand - base >= floor;
}

void emit(DiffReport& rep, const std::string& row, Kind kind, double base,
          double cand) {
  rep.findings.push_back(
      {kind, row, base, cand, base != 0.0 ? cand / base : 0.0});
}

// ---- per-format rules ------------------------------------------------------
// key(): the join key.  compare(): emits the row's findings and returns
// whether the row counted as compared.

struct LatencyRules {
  const DiffOptions& o;

  static std::string key(const LatencyRow& r) {
    return r.cls + '/' + r.component;
  }
  bool compare(DiffReport& rep, const std::string& row, const LatencyRow& b,
               const LatencyRow& c) const {
    if (b.count < o.min_count || c.count < o.min_count) return false;
    const auto floor = static_cast<double>(o.min_cycles);
    const auto p99_b = static_cast<double>(b.p99);
    const auto p99_c = static_cast<double>(c.p99);
    if (grew(p99_b, p99_c, o.p99_tol, floor))
      emit(rep, row, Kind::kP99Regression, p99_b, p99_c);
    if (grew(b.mean(), c.mean(), o.mean_tol, floor))
      emit(rep, row, Kind::kMeanRegression, b.mean(), c.mean());
    return true;
  }
};

struct SimspeedRules {
  const DiffOptions& o;

  static std::string key(const SimspeedRow& r) {
    return r.label + '/' + r.workload + '/' + r.arch;
  }
  bool compare(DiffReport& rep, const std::string& row, const SimspeedRow& b,
               const SimspeedRow& c) const {
    if (b.cycles != c.cycles)
      emit(rep, row, Kind::kCyclesChanged, static_cast<double>(b.cycles),
           static_cast<double>(c.cycles));
    const std::uint64_t min_wall_ns = o.min_wall_ms * 1'000'000;
    if (b.wall_ns >= min_wall_ns && c.wall_ns >= min_wall_ns &&
        b.sim_rate_hz() > 0.0 &&
        c.sim_rate_hz() < b.sim_rate_hz() * (1.0 - o.rate_tol))
      emit(rep, row, Kind::kRateRegression, b.sim_rate_hz(), c.sim_rate_hz());
    const auto rss_b = static_cast<double>(b.peak_rss_bytes);
    const auto rss_c = static_cast<double>(c.peak_rss_bytes);
    if (b.peak_rss_bytes > 0 && grew(rss_b, rss_c, o.rss_tol, 0.0))
      emit(rep, row, Kind::kRssRegression, rss_b, rss_c);
    const auto allocs_b = static_cast<double>(b.allocs);
    const auto allocs_c = static_cast<double>(c.allocs);
    if (b.allocs > 0 && grew(allocs_b, allocs_c, o.allocs_tol, 0.0))
      emit(rep, row, Kind::kAllocRegression, allocs_b, allocs_c);
    return true;
  }
};

/// The join loop: baseline rows in order (compared, or vanished), then
/// candidate rows the baseline lacks (appeared).
template <typename Row, typename Rules>
DiffReport join(const std::vector<Row>& baseline,
                const std::vector<Row>& candidate, const Rules& rules) {
  std::map<std::string, const Row*> base_by_key, cand_by_key;
  for (const Row& r : baseline) base_by_key.emplace(rules.key(r), &r);
  for (const Row& r : candidate) cand_by_key.emplace(rules.key(r), &r);

  DiffReport rep;
  for (const Row& b : baseline) {
    const std::string row = rules.key(b);
    const auto it = cand_by_key.find(row);
    if (it == cand_by_key.end())
      emit(rep, row, Kind::kRowVanished, 0.0, 0.0);
    else if (rules.compare(rep, row, b, *it->second))
      ++rep.rows_compared;
  }
  for (const Row& c : candidate) {
    const std::string row = rules.key(c);
    if (!base_by_key.count(row))
      emit(rep, row, Kind::kRowAppeared, 0.0, 0.0);
  }
  return rep;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kP99Regression: return "p99";
    case Kind::kMeanRegression: return "mean";
    case Kind::kRateRegression: return "sim-rate";
    case Kind::kRssRegression: return "peak-rss";
    case Kind::kAllocRegression: return "allocs";
    case Kind::kCyclesChanged: return "cycles-changed";
    case Kind::kRowVanished: return "row-vanished";
    case Kind::kRowAppeared: return "row-appeared";
  }
  return "?";
}

double tolerance(Kind k, const DiffOptions& o) {
  switch (k) {
    case Kind::kP99Regression: return o.p99_tol;
    case Kind::kMeanRegression: return o.mean_tol;
    case Kind::kRateRegression: return o.rate_tol;
    case Kind::kRssRegression: return o.rss_tol;
    case Kind::kAllocRegression: return o.allocs_tol;
    default: return 0.0;
  }
}

}  // namespace

std::size_t DiffReport::regressions() const {
  std::size_t n = 0;
  for (const DiffFinding& f : findings)
    if (f.is_regression()) ++n;
  return n;
}

BaselineKind baseline_kind(const std::string& path) {
  return std::filesystem::is_directory(path) ? BaselineKind::kProfile
                                             : BaselineKind::kSimspeed;
}

bool parse_latency_csv(const std::string& text, std::vector<LatencyRow>& rows,
                       std::string& error) {
  rows.clear();
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line)) {
    error = "empty latency.csv";
    return false;
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != Profiler::latency_csv_header()) {
    error = "unexpected latency.csv header: " + line;
    return false;
  }
  std::vector<std::string> f;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    LatencyRow r;
    if (!split_fields(line, f) || f.size() != 9 || !parse_u64(f[2], r.count) ||
        !parse_u64(f[3], r.sum) || !parse_u64(f[4], r.min) ||
        !parse_u64(f[5], r.p50) || !parse_u64(f[6], r.p90) ||
        !parse_u64(f[7], r.p99) || !parse_u64(f[8], r.max)) {
      error = "malformed latency.csv row: " + line;
      return false;
    }
    r.cls = f[0];
    r.component = f[1];
    rows.push_back(std::move(r));
  }
  return true;
}

DiffReport diff_baselines(const std::vector<LatencyRow>& baseline,
                          const std::vector<LatencyRow>& candidate,
                          const DiffOptions& opts) {
  return join(baseline, candidate, LatencyRules{opts});
}

DiffReport diff_baselines(const SimspeedDoc& baseline,
                          const SimspeedDoc& candidate,
                          const DiffOptions& opts) {
  return join(baseline.rows, candidate.rows, SimspeedRules{opts});
}

DiffReport diff_baselines(const std::string& baseline_path,
                          const std::string& candidate_path,
                          const DiffOptions& opts) {
  DiffReport rep;
  for (const std::string& path : {baseline_path, candidate_path}) {
    if (!std::filesystem::exists(path)) {
      rep.error = "cannot open " + path;
      return rep;
    }
  }
  const BaselineKind kind = baseline_kind(baseline_path);
  if (baseline_kind(candidate_path) != kind) {
    rep.error = "cannot compare a profile directory with a simspeed file: " +
                baseline_path + " vs " + candidate_path;
    return rep;
  }
  if (kind == BaselineKind::kProfile) {
    std::vector<LatencyRow> base, cand;
    if (!load(baseline_path + "/latency.csv", base, parse_latency_csv,
              rep.error) ||
        !load(candidate_path + "/latency.csv", cand, parse_latency_csv,
              rep.error))
      return rep;
    return diff_baselines(base, cand, opts);
  }
  SimspeedDoc base, cand;
  if (!load(baseline_path, base, parse_simspeed, rep.error) ||
      !load(candidate_path, cand, parse_simspeed, rep.error))
    return rep;
  return diff_baselines(base, cand, opts);
}

void write_report(std::ostream& os, const DiffReport& rep,
                  const DiffOptions& opts) {
  if (!rep.ok()) {
    os << "error: " << rep.error << '\n';
    return;
  }
  for (const DiffFinding& f : rep.findings) {
    os << (f.is_regression() ? "REGRESSION " : "note       ")
       << kind_name(f.kind) << "  " << f.row;
    if (f.kind == Kind::kRowVanished || f.kind == Kind::kRowAppeared) {
      os << '\n';
      continue;
    }
    os << "  " << f.base_value << " -> " << f.cand_value << "  (x" << f.ratio;
    if (f.is_regression()) os << ", tol " << tolerance(f.kind, opts);
    os << ")\n";
  }
  os << rep.rows_compared << " row(s) compared, " << rep.regressions()
     << " regression(s)\n";
}

}  // namespace ascoma::prof
