#include "trace/trace.hh"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "workload/synthetic.hh"

namespace ascoma::trace {
namespace {

std::vector<Op> drain(workload::OpStream& s) {
  std::vector<Op> ops;
  for (Op op = s.next(); op.kind != OpKind::kEnd; op = s.next())
    ops.push_back(op);
  return ops;
}

workload::SyntheticWorkload tiny_workload() {
  workload::SyntheticParams p;
  p.nodes = 2;
  p.home_pages = 8;
  p.remote_pages = 4;
  p.iterations = 2;
  p.locks = 2;
  return workload::SyntheticWorkload(p);
}

// The pid keeps the names of trace tests running in parallel processes
// (ctest -j) apart; the counter keeps one process's files apart.
struct TempFile {
  TempFile() {
    path = ::testing::TempDir() + "/ascoma_trace_test_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter++) +
           ".bin";
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
  static int counter;
};
int TempFile::counter = 0;

// Record → replay must hand the machine the generator's streams op for op.
void expect_round_trip(const workload::Workload& wl) {
  SCOPED_TRACE(wl.name());
  TempFile f;
  const std::uint64_t written = record(wl, 42, f.path);
  EXPECT_GT(written, 0u);

  TraceWorkload replay(f.path);
  EXPECT_EQ(replay.nodes(), wl.nodes());
  EXPECT_EQ(replay.total_pages(), wl.total_pages());
  EXPECT_EQ(replay.page_bytes(), wl.page_bytes());
  EXPECT_EQ(replay.total_ops(), written);

  for (std::uint32_t p = 0; p < wl.nodes(); ++p) {
    const auto orig = drain(*wl.stream(p, 42));
    const auto back = drain(*replay.stream(p, 999));  // seed irrelevant
    ASSERT_EQ(orig.size(), back.size());
    for (std::size_t i = 0; i < orig.size(); ++i) {
      ASSERT_EQ(orig[i].kind, back[i].kind) << "proc " << p << " op " << i;
      ASSERT_EQ(orig[i].arg, back[i].arg) << "proc " << p << " op " << i;
    }
  }
}

TEST(Trace, RoundTripPreservesStreams) {
  expect_round_trip(tiny_workload());
  for (const auto& name : workload::workload_names())
    expect_round_trip(*workload::make_workload(name, 0.1));
}

// The replay stream is one window over the loaded ops: it ends with kEnd
// and keeps returning kEnd.
TEST(OpStream, TraceReplayEndsForever) {
  const auto wl = tiny_workload();
  TempFile f;
  record(wl, 42, f.path);
  TraceWorkload replay(f.path);
  for (std::uint32_t p = 0; p < wl.nodes(); ++p) {
    const auto s = replay.stream(p, 0);
    EXPECT_EQ(drain(*s).size(), drain(*wl.stream(p, 42)).size());
    for (int k = 0; k < 3; ++k) EXPECT_EQ(s->next().kind, OpKind::kEnd);
  }
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW(TraceWorkload("/nonexistent/path/trace.bin"),
               ascoma::CheckFailure);
}

TEST(Trace, BadMagicRejected) {
  TempFile f;
  std::ofstream os(f.path, std::ios::binary);
  os << "NOPE and some garbage bytes";
  os.close();
  EXPECT_THROW(TraceWorkload{f.path}, ascoma::CheckFailure);
}

/// Hand-written trace: the header of a `nodes`-processor trace with the
/// given page/line sizes and shared-space size, then one (proc id, op count)
/// record per entry of `procs`, each followed by that many 1-cycle private
/// ops.
void write_trace(const std::string& path, std::uint32_t nodes,
                 std::uint32_t page_bytes, std::uint32_t line_bytes,
                 const std::vector<std::pair<std::uint32_t, std::uint64_t>>&
                     procs,
                 std::uint64_t total_pages = 16) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  const auto put = [&os](auto v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  os.write("ASCT", 4);
  put(std::uint32_t{1});
  put(nodes);
  put(total_pages);
  put(page_bytes);
  put(line_bytes);
  for (const auto& [proc, count] : procs) {
    put(proc);
    put(count);
    for (std::uint64_t k = 0; k < count && k < 4; ++k) {
      put(static_cast<std::uint8_t>(OpKind::kPrivate));
      put(std::uint64_t{1});
    }
  }
}

TEST(Trace, ZeroOrNonPowerOfTwoSizesRejected) {
  TempFile f;
  write_trace(f.path, 2, 0, 32, {{0, 1}, {1, 1}});
  EXPECT_THROW(TraceWorkload{f.path}, ascoma::CheckFailure);
  write_trace(f.path, 2, 4096, 0, {{0, 1}, {1, 1}});
  EXPECT_THROW(TraceWorkload{f.path}, ascoma::CheckFailure);
  write_trace(f.path, 2, 3000, 32, {{0, 1}, {1, 1}});
  EXPECT_THROW(TraceWorkload{f.path}, ascoma::CheckFailure);
}

TEST(Trace, OpCountBeyondFileSizeRejected) {
  TempFile f;
  write_trace(f.path, 2, 4096, 32, {{0, std::uint64_t{1} << 60}});
  EXPECT_THROW(TraceWorkload{f.path}, ascoma::CheckFailure);
}

TEST(Trace, HugePageCountRejected) {
  // 2^40 pages would make the machine's per-page tables throw an untyped
  // std::bad_alloc; the header parse rejects the count first.
  TempFile f;
  for (std::uint32_t nodes : {2u, 64u}) {
    write_trace(f.path, nodes, 4096, 32, {{0, 1}, {1, 1}},
                std::uint64_t{1} << 40);
    EXPECT_THROW(TraceWorkload{f.path}, ascoma::CheckFailure) << nodes;
  }
}

TEST(Trace, DuplicateProcIdRejected) {
  TempFile f;
  write_trace(f.path, 2, 4096, 32, {{0, 3}, {1, 2}});
  EXPECT_EQ(TraceWorkload{f.path}.total_ops(), 5u);
  write_trace(f.path, 2, 4096, 32, {{0, 1}, {0, 1}});
  EXPECT_THROW(TraceWorkload{f.path}, ascoma::CheckFailure);
}

TEST(Trace, TruncatedFileRejected) {
  TempFile f;
  auto wl = tiny_workload();
  record(wl, 42, f.path);
  // Truncate to half.
  std::ifstream is(f.path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(is)), {});
  is.close();
  std::ofstream os(f.path, std::ios::binary | std::ios::trunc);
  os.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  os.close();
  EXPECT_THROW(TraceWorkload{f.path}, ascoma::CheckFailure);
}

TEST(Trace, RecordToUnwritablePathThrows) {
  auto wl = tiny_workload();
  EXPECT_THROW(record(wl, 1, "/nonexistent/dir/trace.bin"),
               ascoma::CheckFailure);
}

TEST(Trace, HomeLayoutSurvivesReplay) {
  TempFile f;
  auto wl = tiny_workload();
  record(wl, 42, f.path);
  TraceWorkload replay(f.path);
  for (VPageId p{0}; p.value() < wl.total_pages(); ++p)
    EXPECT_EQ(replay.home_of(p), wl.home_of(p));
}

}  // namespace
}  // namespace ascoma::trace
