#include "prof/simspeed.hh"

#include <charconv>
#include <ostream>
#include <sstream>
#include <string_view>

#include "obs/export.hh"

namespace ascoma::prof {

namespace {

double rate(std::uint64_t events, std::uint64_t wall) {
  if (wall == 0) return 0.0;
  return static_cast<double>(events) / (static_cast<double>(wall) * 1e-9);
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// ---- minimal JSON reader ----------------------------------------------------
// Just enough grammar for the documents write_simspeed emits: one object of
// scalars plus one array of flat objects.  Unknown keys are skipped so the
// schema can grow fields without breaking older diff binaries.

struct Cursor {
  const std::string& s;
  std::size_t i = 0;
  std::string err;

  bool failed() const { return !err.empty(); }
  void fail(const std::string& what) {
    if (err.empty()) err = what + " at offset " + std::to_string(i);
  }
  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r'))
      ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    fail(std::string("expected '") + c + "'");
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return i < s.size() && s[i] == c;
  }

  bool parse_string(std::string& out) {
    out.clear();
    if (!eat('"')) return false;
    while (i < s.size() && s[i] != '"') {
      char ch = s[i];
      if (ch == '\\') {
        if (i + 1 >= s.size()) break;
        const char esc = s[i + 1];
        i += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i + 4 > s.size()) {
              fail("truncated \\u escape");
              return false;
            }
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s[i + static_cast<std::size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return false;
              }
            }
            i += 4;
            // json_escape only \u-escapes control characters (< 0x20), so a
            // single byte suffices; anything wider is replaced.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            fail("unknown escape");
            return false;
        }
        continue;
      }
      out += ch;
      ++i;
    }
    return eat('"');
  }

  /// The characters of one JSON number token (empty when none is there).
  std::string_view number_token() {
    skip_ws();
    const std::size_t start = i;
    while (i < s.size() &&
           (s[i] == '-' || s[i] == '+' || s[i] == '.' || s[i] == 'e' ||
            s[i] == 'E' || (s[i] >= '0' && s[i] <= '9')))
      ++i;
    return std::string_view(s).substr(start, i - start);
  }

  /// A whole token that parses as `T`, or a failure: "1-2", "-9" and "9e99"
  /// are not counters, so they must not reach the gate as 1, 0 or garbage.
  template <typename T>
  bool parse_number(T& out) {
    const std::string_view tok = number_token();
    const char* last = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), last, out);
    if (tok.empty() || ec != std::errc{} || ptr != last) {
      fail("bad number '" + std::string(tok) + "'");
      return false;
    }
    return true;
  }

  /// Skip any scalar value (string, number, literal).  Containers are not
  /// expected in unknown positions.
  bool skip_value() {
    skip_ws();
    if (peek('"')) {
      std::string ignored;
      return parse_string(ignored);
    }
    if (i < s.size() && (s[i] == 't' || s[i] == 'f' || s[i] == 'n')) {
      while (i < s.size() && s[i] >= 'a' && s[i] <= 'z') ++i;
      return true;
    }
    double ignored = 0;
    return parse_number(ignored);
  }
};

bool parse_row(Cursor& c, SimspeedRow& row) {
  if (!c.eat('{')) return false;
  if (c.peek('}')) return c.eat('}');
  do {
    std::string key;
    if (!c.parse_string(key) || !c.eat(':')) return false;
    std::uint64_t* counter = key == "cycles"           ? &row.cycles
                             : key == "accesses"       ? &row.accesses
                             : key == "wall_ns"        ? &row.wall_ns
                             : key == "peak_rss_bytes" ? &row.peak_rss_bytes
                             : key == "allocs"         ? &row.allocs
                                                       : nullptr;
    if (counter != nullptr) {
      if (!c.parse_number(*counter)) return false;
    } else if (key == "label") {
      if (!c.parse_string(row.label)) return false;
    } else if (key == "workload") {
      if (!c.parse_string(row.workload)) return false;
    } else if (key == "arch") {
      if (!c.parse_string(row.arch)) return false;
    } else {
      if (!c.skip_value()) return false;  // e.g. the derived sim_rate_hz
    }
  } while (c.peek(',') && c.eat(','));
  return c.eat('}');
}

}  // namespace

double SimspeedRow::sim_rate_hz() const { return rate(cycles, wall_ns); }
double SimspeedRow::access_rate_hz() const { return rate(accesses, wall_ns); }

void write_simspeed(std::ostream& os, const SimspeedDoc& doc) {
  os << "{\"schema\":\"" << kSimspeedSchema << "\",\"bench\":\""
     << obs::json_escape(doc.bench) << "\",\"rows\":[";
  bool first = true;
  for (const SimspeedRow& r : doc.rows) {
    if (!first) os << ',';
    first = false;
    os << "{\"label\":\"" << obs::json_escape(r.label) << '"'
       << ",\"workload\":\"" << obs::json_escape(r.workload) << '"'
       << ",\"arch\":\"" << obs::json_escape(r.arch) << '"'
       << ",\"cycles\":" << r.cycles
       << ",\"accesses\":" << r.accesses
       << ",\"wall_ns\":" << r.wall_ns
       << ",\"sim_rate_hz\":" << fmt_double(r.sim_rate_hz())
       << ",\"peak_rss_bytes\":" << r.peak_rss_bytes
       << ",\"allocs\":" << r.allocs << '}';
  }
  os << "]}\n";
}

bool parse_simspeed(const std::string& text, SimspeedDoc& doc,
                    std::string& error) {
  doc = SimspeedDoc{};
  Cursor c{text, 0, {}};
  bool schema_seen = false;
  if (!c.eat('{')) {
    error = c.err;
    return false;
  }
  do {
    std::string key;
    if (!c.parse_string(key) || !c.eat(':')) {
      error = c.err;
      return false;
    }
    if (key == "schema") {
      std::string schema;
      if (!c.parse_string(schema)) {
        error = c.err;
        return false;
      }
      if (schema != kSimspeedSchema) {
        error = "unsupported schema '" + schema + "'";
        return false;
      }
      schema_seen = true;
    } else if (key == "bench") {
      if (!c.parse_string(doc.bench)) {
        error = c.err;
        return false;
      }
    } else if (key == "rows") {
      if (!c.eat('[')) {
        error = c.err;
        return false;
      }
      if (!c.peek(']')) {
        do {
          SimspeedRow row;
          if (!parse_row(c, row)) {
            error = c.err.empty() ? "malformed row" : c.err;
            return false;
          }
          doc.rows.push_back(std::move(row));
        } while (c.peek(',') && c.eat(','));
      }
      if (!c.eat(']')) {
        error = c.err;
        return false;
      }
    } else {
      if (!c.skip_value()) {
        error = c.err;
        return false;
      }
    }
  } while (c.peek(',') && c.eat(','));
  if (!c.eat('}')) {
    error = c.err;
    return false;
  }
  if (!schema_seen) {
    error = "missing schema field";
    return false;
  }
  return true;
}

}  // namespace ascoma::prof
