#include "obs/export.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace ascoma::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string csv_field(std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos)
    return std::string(s);
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

namespace {

void json_event_args(std::ostream& os, const Event& e, bool lead_comma) {
  const std::uint64_t args[3] = {e.a, e.b, e.c};
  bool comma = lead_comma;
  for (int i = 0; i < 3; ++i) {
    const char* name = arg_name(e.kind, i);
    if (!name) continue;
    if (comma) os << ',';
    os << '"' << name << "\":" << args[i];
    comma = true;
  }
}

/// One event as a single-line JSON object (no trailing newline): the JSONL
/// row shape.
void write_event_json(std::ostream& os, const Event& e) {
  os << "{\"cycle\":" << e.cycle << ",\"kind\":\"" << to_string(e.kind)
     << "\",\"node\":" << e.node;
  if (e.page != kInvalidPage) os << ",\"page\":" << e.page;
  json_event_args(os, e, true);
  os << '}';
}

}  // namespace

void write_jsonl(std::ostream& os, const EventSink& sink) {
  for (const Event& e : sink.sorted_events()) {
    write_event_json(os, e);
    os << '\n';
  }
}

void write_perfetto(std::ostream& os, const EventSink& sink,
                    std::uint32_t nodes) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool comma = false;
  auto sep = [&] {
    if (comma) os << ',';
    comma = true;
    os << '\n';
  };

  // Track naming: one "process" per simulated node; instants land on its
  // "events" thread, counters on per-gauge counter tracks.
  for (std::uint32_t n = 0; n < nodes; ++n) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << n
       << ",\"tid\":0,\"args\":{\"name\":\"node " << n << "\"}}";
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << n
       << ",\"tid\":0,\"args\":{\"name\":\"events\"}}";
  }

  for (const Event& e : sink.sorted_events()) {
    sep();
    os << "{\"name\":\"" << to_string(e.kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.cycle
       << ",\"pid\":" << e.node << ",\"tid\":0,\"args\":{";
    bool inner = false;
    if (e.page != kInvalidPage) {
      os << "\"page\":" << e.page;
      inner = true;
    }
    json_event_args(os, e, inner);
    os << "}}";
  }

  for (const Sample& s : sink.samples()) {
    const struct {
      const char* name;
      std::uint64_t value;
    } gauges[] = {{"free_frames", s.free_frames},
                  {"threshold", s.threshold},
                  {"page_cache_active", s.cache_active},
                  {"remote_misses", s.remote_misses}};
    for (const auto& g : gauges) {
      sep();
      os << "{\"name\":\"" << g.name << "\",\"ph\":\"C\",\"ts\":" << s.cycle
         << ",\"pid\":" << s.node << ",\"args\":{\"" << g.name
         << "\":" << g.value << "}}";
    }
  }
  os << "\n]}\n";
}

std::string metrics_csv_header() {
  return "cycle,node,free_frames,threshold,page_cache_active,remote_misses";
}

void write_metrics_csv(std::ostream& os, const EventSink& sink) {
  os << metrics_csv_header() << '\n';
  for (const Sample& s : sink.samples()) {
    os << s.cycle << ',' << s.node << ',' << s.free_frames << ','
       << s.threshold << ',' << s.cache_active << ',' << s.remote_misses
       << '\n';
  }
}

namespace {

template <typename Fn>
bool write_file(const std::string& path, Fn&& fn) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  fn(os);
  return os.good();
}

}  // namespace

bool write_jsonl_file(const std::string& path, const EventSink& sink) {
  return write_file(path, [&](std::ostream& os) { write_jsonl(os, sink); });
}

bool write_perfetto_file(const std::string& path, const EventSink& sink,
                         std::uint32_t nodes) {
  return write_file(
      path, [&](std::ostream& os) { write_perfetto(os, sink, nodes); });
}

bool write_metrics_csv_file(const std::string& path, const EventSink& sink) {
  return write_file(path,
                    [&](std::ostream& os) { write_metrics_csv(os, sink); });
}

std::size_t CrashExporter::flush() noexcept {
  if (flushed_ || sink_ == nullptr) return 0;
  flushed_ = true;
  std::size_t written = 0;
  try {
    if (!events_path_.empty() && write_jsonl_file(events_path_, *sink_))
      ++written;
    if (!perfetto_path_.empty() &&
        write_perfetto_file(perfetto_path_, *sink_, nodes_))
      ++written;
    if (!metrics_path_.empty() &&
        write_metrics_csv_file(metrics_path_, *sink_))
      ++written;
  } catch (...) {
    // A crash-path flush must never mask the original failure.
  }
  return written;
}

}  // namespace ascoma::obs
