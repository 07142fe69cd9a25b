#include "core/sweep_status.hh"

#include <sstream>

#include "obs/export.hh"

namespace ascoma::core {

namespace {

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string quoted(std::string_view s) {
  return '"' + obs::json_escape(s) + '"';
}

/// The summary fields shared by the /jobs rows and the /jobs/<fp> object.
void write_row_head(std::ostream& os, std::size_t i, const JobStatus& j) {
  os << "{\"index\":" << i << ",\"state\":" << quoted(to_string(j.state))
     << ",\"label\":" << quoted(j.label)
     << ",\"fingerprint\":" << quoted(j.fingerprint);
}

}  // namespace

const char* to_string(JobStatus::State s) {
  switch (s) {
    case JobStatus::State::kPending: return "pending";
    case JobStatus::State::kRunning: return "running";
    case JobStatus::State::kDone: return "done";
    case JobStatus::State::kCached: return "cached";
    case JobStatus::State::kFailed: return "failed";
  }
  return "?";
}

void SweepStatusBoard::reset(const std::vector<SweepJob>& jobs,
                             const std::vector<std::string>& fingerprints) {
  const LockGuard g(mu_);
  jobs_.assign(jobs.size(), JobStatus{});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobStatus& j = jobs_[i];
    j.label = jobs[i].label;
    j.workload = jobs[i].workload;
    j.arch = to_string(jobs[i].config.arch);
    j.pressure = jobs[i].config.memory_pressure;
    if (i < fingerprints.size()) j.fingerprint = fingerprints[i];
  }
  progress_.clear();
}

void SweepStatusBoard::mark_running(std::size_t i,
                                    HostNs since_sweep_start) {
  const LockGuard g(mu_);
  if (i >= jobs_.size()) return;
  jobs_[i].state = JobStatus::State::kRunning;
  jobs_[i].started = since_sweep_start;
}

void SweepStatusBoard::mark_finished(std::size_t i, JobStatus::State state,
                                     const SweepResult& r,
                                     HostNs since_sweep_start) {
  const LockGuard g(mu_);
  if (i >= jobs_.size()) return;
  JobStatus& j = jobs_[i];
  j.state = state;
  j.finished = since_sweep_start;
  j.timing = r.timing;
  j.sim_cycles = r.result.stats.parallel_cycles.value();
  j.accesses = r.accesses();
}

void SweepStatusBoard::mark_straggler(std::size_t i) {
  const LockGuard g(mu_);
  if (i < jobs_.size()) jobs_[i].timing.straggler = true;
}

void SweepStatusBoard::set_progress(std::string line) {
  const LockGuard g(mu_);
  progress_ = std::move(line);
}

std::string SweepStatusBoard::progress_json() const {
  // Snapshot under mu_, format outside (rule C4).
  std::string line;
  std::size_t total = 0;
  {
    const LockGuard g(mu_);
    line = progress_;
    total = jobs_.size();
  }
  if (!line.empty()) return line + '\n';
  std::ostringstream os;
  os << "{\"sweep\":\"progress\",\"seq\":0,\"done\":0,\"total\":"
     << total << "}\n";
  return os.str();
}

std::string SweepStatusBoard::jobs_json() const {
  // Snapshot the whole table under mu_, render outside (rule C4): scrapes
  // still see one consistent table, but workers marking jobs only contend
  // with a vector copy, never with JSON formatting.
  std::vector<JobStatus> jobs;
  {
    const LockGuard g(mu_);
    jobs = jobs_;
  }
  std::size_t counts[5] = {0, 0, 0, 0, 0};
  for (const JobStatus& j : jobs) ++counts[static_cast<int>(j.state)];
  std::ostringstream os;
  os << "{\"sweep\":\"jobs\",\"total\":" << jobs.size()
     << ",\"pending\":" << counts[0] << ",\"running\":" << counts[1]
     << ",\"done\":" << counts[2] << ",\"cached\":" << counts[3]
     << ",\"failed\":" << counts[4] << ",\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobStatus& j = jobs[i];
    if (i != 0) os << ',';
    write_row_head(os, i, j);
    os << ",\"wall_ms\":" << j.timing.wall.value() / 1'000'000
       << ",\"straggler\":" << (j.timing.straggler ? "true" : "false") << '}';
  }
  os << "]}\n";
  return os.str();
}

std::string SweepStatusBoard::job_json(std::string_view key) const {
  if (key.empty()) return {};

  // Find and copy the matching row under mu_, render outside (rule C4).
  JobStatus j;
  std::size_t found;
  {
    const LockGuard g(mu_);
    found = jobs_.size();
    const bool numeric =
        key.find_first_not_of("0123456789") == std::string_view::npos &&
        key.size() <= 9;
    if (numeric) {
      const std::size_t i = std::stoul(std::string(key));
      if (i < jobs_.size()) found = i;
    } else {
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (jobs_[i].fingerprint.compare(0, key.size(), key) != 0) continue;
        if (found != jobs_.size()) return {};  // ambiguous prefix
        found = i;
      }
    }
    if (found == jobs_.size()) return {};
    j = jobs_[found];
  }

  std::ostringstream os;
  write_row_head(os, found, j);
  os << ",\"workload\":" << quoted(j.workload)
     << ",\"arch\":" << quoted(j.arch)
     << ",\"pressure\":" << fmt_double(j.pressure)
     << ",\"started_ms\":" << j.started.value() / 1'000'000
     << ",\"finished_ms\":" << j.finished.value() / 1'000'000
     << ",\"wall_ns\":" << j.timing.wall.value()
     << ",\"store_ns\":" << j.timing.store.value()
     << ",\"serve_ns\":" << j.timing.serve.value()
     << ",\"peak_rss_bytes\":" << j.timing.peak_rss_bytes
     << ",\"allocs\":" << j.timing.allocs
     << ",\"cached\":" << (j.timing.cached ? "true" : "false")
     << ",\"straggler\":" << (j.timing.straggler ? "true" : "false")
     << ",\"sim_cycles\":" << j.sim_cycles << ",\"accesses\":" << j.accesses;
  const double wall_s = static_cast<double>(j.timing.wall.value()) * 1e-9;
  os << ",\"sim_rate_hz\":"
     << fmt_double(wall_s > 0.0 ? static_cast<double>(j.sim_cycles) / wall_s
                                : 0.0);
  os << "}\n";
  return os.str();
}

std::size_t SweepStatusBoard::size() const {
  const LockGuard g(mu_);
  return jobs_.size();
}

}  // namespace ascoma::core
