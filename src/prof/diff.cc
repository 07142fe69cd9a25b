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

/// Read and parse one profile directory's latency.csv; on failure `error`
/// names the file.
bool load(const std::string& dir, std::vector<LatencyRow>& rows,
          std::string& error) {
  const std::string path = dir + "/latency.csv";
  std::ifstream is(path);
  if (!is) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  if (!parse_latency_csv(ss.str(), rows, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

/// The growth check both gated columns share: beyond the relative
/// tolerance AND by at least the absolute floor.
bool grew(double base, double cand, double tol, double floor) {
  return cand > base * (1.0 + tol) && cand - base >= floor;
}

void emit(DiffReport& rep, const std::string& row, Kind kind, double base,
          double cand) {
  rep.findings.push_back(
      {kind, row, base, cand, base != 0.0 ? cand / base : 0.0});
}

std::string key(const LatencyRow& r) { return r.cls + '/' + r.component; }

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kP99Regression: return "p99";
    case Kind::kMeanRegression: return "mean";
    case Kind::kRowVanished: return "row-vanished";
    case Kind::kRowAppeared: return "row-appeared";
  }
  return "?";
}

}  // namespace

std::size_t DiffReport::regressions() const {
  std::size_t n = 0;
  for (const DiffFinding& f : findings)
    if (f.is_regression()) ++n;
  return n;
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
  // Baseline rows in order (compared, or vanished), then candidate rows the
  // baseline lacks (appeared).
  std::map<std::string, const LatencyRow*> base_by_key, cand_by_key;
  for (const LatencyRow& r : baseline) base_by_key.emplace(key(r), &r);
  for (const LatencyRow& r : candidate) cand_by_key.emplace(key(r), &r);

  DiffReport rep;
  const auto floor = static_cast<double>(opts.min_cycles);
  for (const LatencyRow& b : baseline) {
    const std::string row = key(b);
    const auto it = cand_by_key.find(row);
    if (it == cand_by_key.end()) {
      emit(rep, row, Kind::kRowVanished, 0.0, 0.0);
      continue;
    }
    const LatencyRow& c = *it->second;
    if (b.count < opts.min_count || c.count < opts.min_count) continue;
    ++rep.rows_compared;
    const auto p99_b = static_cast<double>(b.p99);
    const auto p99_c = static_cast<double>(c.p99);
    if (grew(p99_b, p99_c, opts.p99_tol, floor))
      emit(rep, row, Kind::kP99Regression, p99_b, p99_c);
    if (grew(b.mean(), c.mean(), opts.mean_tol, floor))
      emit(rep, row, Kind::kMeanRegression, b.mean(), c.mean());
  }
  for (const LatencyRow& c : candidate) {
    const std::string row = key(c);
    if (!base_by_key.count(row)) emit(rep, row, Kind::kRowAppeared, 0.0, 0.0);
  }
  return rep;
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
    if (!std::filesystem::is_directory(path)) {
      rep.error = "not a profile directory: " + path;
      return rep;
    }
  }
  std::vector<LatencyRow> base, cand;
  if (!load(baseline_path, base, rep.error) ||
      !load(candidate_path, cand, rep.error))
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
    if (!f.is_regression()) {  // a row on one side only
      os << '\n';
      continue;
    }
    os << "  " << f.base_value << " -> " << f.cand_value << "  (x" << f.ratio
       << ", tol "
       << (f.kind == Kind::kP99Regression ? opts.p99_tol : opts.mean_tol)
       << ")\n";
  }
  os << rep.rows_compared << " row(s) compared, " << rep.regressions()
     << " regression(s)\n";
}

}  // namespace ascoma::prof
