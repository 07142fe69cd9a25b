#include "spans.hh"

namespace simbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Span::Span(Tracer& t, const char* name) : t_(t) {
  if (!t_.on_) return;
  index_ = static_cast<int>(t_.records_.size());
  t_.records_.push_back(SpanRecord{name, now_ns(), 0, t_.open_});
  t_.open_ = index_;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  t_.records_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  t_.open_ = t_.records_[static_cast<std::size_t>(index_)].parent;
}

std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& records) {
  std::vector<std::uint64_t> self(records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    self[i] = records[i].end_ns - records[i].start_ns;
  for (const SpanRecord& r : records) {
    if (r.parent < 0) continue;
    std::uint64_t& p = self[static_cast<std::size_t>(r.parent)];
    const std::uint64_t d = r.end_ns - r.start_ns;
    p = p > d ? p - d : 0;
  }
  return self;
}

std::vector<SpanStat> Tracer::stats() const {
  const std::vector<std::uint64_t> self = self_times(records_);
  std::vector<SpanStat> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    SpanStat* s = nullptr;
    for (SpanStat& o : out)
      if (o.name == r.name) s = &o;
    if (s == nullptr) {
      out.push_back(SpanStat{r.name, 0, 0, 0});
      s = &out.back();
    }
    ++s->count;
    s->total_ns += r.end_ns - r.start_ns;
    s->self_ns += self[i];
  }
  return out;
}

}  // namespace simbench
