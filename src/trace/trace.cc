#include "trace/trace.hh"

#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>

#include "common/check.hh"
#include "common/config.hh"

namespace ascoma::trace {

namespace {

constexpr char kMagic[4] = {'A', 'S', 'C', 'T'};
constexpr std::uint32_t kVersion = 1;
/// On-disk size of one op: u8 kind + u64 arg.
constexpr std::uint64_t kOpBytes = 9;
/// Most pages one node can home: every page it homes takes one of its
/// frames, and a node numbers its frames with a 32-bit FrameId.
constexpr std::uint64_t kMaxPagesPerNode =
    std::numeric_limits<FrameId::rep>::max();

template <typename T>
void put(std::ofstream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T get(std::ifstream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  ASCOMA_CHECK_MSG(is.good(), "truncated trace file");
  return v;
}

/// Replays one loaded process stream in place: a view, not a copy, of the
/// TraceWorkload's vector (kEnd-terminated), which outlives the stream.
class VectorStream final : public workload::OpStream {
 public:
  explicit VectorStream(std::span<const Op> ops) {
    set_window(ops.data(), ops.data() + ops.size());
  }

 private:
  void refill() override {}  // the whole stream is one window
};

}  // namespace

std::uint64_t record(const workload::Workload& wl, std::uint64_t seed,
                     const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASCOMA_CHECK_MSG(os.is_open(), "cannot open trace file for writing");
  os.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(os, kVersion);
  put<std::uint32_t>(os, wl.nodes());
  put<std::uint64_t>(os, wl.total_pages());
  put<std::uint32_t>(os, static_cast<std::uint32_t>(wl.page_bytes().value()));
  put<std::uint32_t>(os, static_cast<std::uint32_t>(wl.line_bytes().value()));

  std::uint64_t total = 0;
  for (std::uint32_t p = 0; p < wl.nodes(); ++p) {
    auto stream = wl.stream(p, seed);
    std::vector<Op> ops;
    for (Op op = stream->next(); op.kind != OpKind::kEnd; op = stream->next())
      ops.push_back(op);
    put<std::uint32_t>(os, p);
    put<std::uint64_t>(os, ops.size());
    for (const Op& op : ops) {
      put<std::uint8_t>(os, static_cast<std::uint8_t>(op.kind));
      put<std::uint64_t>(os, op.arg);
    }
    total += ops.size();
  }
  ASCOMA_CHECK_MSG(os.good(), "trace write failed");
  return total;
}

TraceWorkload::TraceWorkload(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  ASCOMA_CHECK_MSG(is.is_open(), "cannot open trace file");
  const auto file_bytes = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0);
  char magic[4];
  is.read(magic, sizeof(magic));
  ASCOMA_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, 4) == 0,
                   "bad trace magic");
  const auto version = get<std::uint32_t>(is);
  ASCOMA_CHECK_MSG(version == kVersion, "unsupported trace version");
  nodes_ = get<std::uint32_t>(is);
  total_pages_ = get<std::uint64_t>(is);
  page_bytes_ = ByteCount{get<std::uint32_t>(is)};
  line_bytes_ = ByteCount{get<std::uint32_t>(is)};
  ASCOMA_CHECK_MSG(nodes_ > 0 && nodes_ <= MachineConfig::kMaxNodes,
                   "bad node count in trace");
  ASCOMA_CHECK_MSG(total_pages_ > 0, "empty address space in trace");
  // Checked before the machine sizes its per-page tables from this count.
  ASCOMA_CHECK_MSG(total_pages_ <= kMaxPagesPerNode * nodes_,
                   "trace declares " << total_pages_ << " pages; " << nodes_
                                     << " nodes can home at most "
                                     << kMaxPagesPerNode * nodes_);
  ASCOMA_CHECK_MSG(std::has_single_bit(page_bytes_.value()) &&
                       std::has_single_bit(line_bytes_.value()),
                   "trace page and line sizes must be powers of two");

  name_ = "trace:" + path;
  streams_.resize(nodes_);
  for (std::uint32_t i = 0; i < nodes_; ++i) {
    const auto proc = get<std::uint32_t>(is);
    ASCOMA_CHECK_MSG(proc < nodes_, "bad proc id in trace");
    auto& ops = streams_[proc];
    ASCOMA_CHECK_MSG(ops.empty(), "duplicate proc id in trace");
    const auto count = get<std::uint64_t>(is);
    const auto left = file_bytes - static_cast<std::uint64_t>(is.tellg());
    ASCOMA_CHECK_MSG(count <= left / kOpBytes,
                     "trace op count exceeds the file size");
    ops.reserve(count + 1);
    for (std::uint64_t k = 0; k < count; ++k) {
      Op op;
      op.kind = static_cast<OpKind>(get<std::uint8_t>(is));
      op.arg = get<std::uint64_t>(is);
      ASCOMA_CHECK_MSG(op.kind < OpKind::kEnd, "bad op kind in trace");
      if (op.kind == OpKind::kLoad || op.kind == OpKind::kStore) {
        ASCOMA_CHECK_MSG(op.arg / page_bytes_.value() < total_pages_,
                         "trace address outside the shared space");
      }
      ops.push_back(op);
    }
    ops.push_back({OpKind::kEnd, 0});
  }
}

std::unique_ptr<workload::OpStream> TraceWorkload::stream(
    std::uint32_t proc, std::uint64_t /*seed*/) const {
  ASCOMA_CHECK(proc < streams_.size());
  return std::make_unique<VectorStream>(streams_[proc]);
}

std::uint64_t TraceWorkload::total_ops() const {
  std::uint64_t n = 0;
  for (const auto& s : streams_) n += s.size() - 1;  // exclude kEnd
  return n;
}

}  // namespace ascoma::trace
