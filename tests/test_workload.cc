#include "workload/workload.hh"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "common/check.hh"
#include "core/host.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"

namespace ascoma::workload {
namespace {

std::vector<Op> drain(OpStream& s) {
  std::vector<Op> ops;
  for (Op op = s.next(); op.kind != OpKind::kEnd; op = s.next())
    ops.push_back(op);
  return ops;
}

TEST(WorkloadFactory, KnowsAllSixPrograms) {
  EXPECT_EQ(workload_names().size(), 6u);
  for (const auto& name : workload_names()) {
    auto wl = make_workload(name);
    ASSERT_NE(wl, nullptr) << name;
    EXPECT_EQ(wl->name(), name);
  }
  EXPECT_EQ(make_workload("unknown"), nullptr);
}

TEST(WorkloadFactory, PaperNodeCounts) {
  EXPECT_EQ(make_workload("lu")->nodes(), 4u);  // paper: lu on 4 nodes
  for (const auto& name : {"barnes", "em3d", "fft", "ocean", "radix"})
    EXPECT_EQ(make_workload(name)->nodes(), 8u) << name;
}

TEST(Workload, ContiguousHomeLayout) {
  auto wl = make_workload("em3d");
  const auto per = wl->pages_per_node();
  for (std::uint32_t n = 0; n < wl->nodes(); ++n) {
    EXPECT_EQ(wl->home_of(VPageId{n * per}), NodeId{n});
    EXPECT_EQ(wl->home_of(VPageId{(n + 1) * per - 1}), NodeId{n});
  }
}

TEST(Workload, StreamsAreDeterministic) {
  for (const auto& name : workload_names()) {
    auto wl = make_workload(name, 0.25);
    auto a = drain(*wl->stream(1, 42));
    auto b = drain(*wl->stream(1, 42));
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].kind, b[i].kind) << name << " op " << i;
      ASSERT_EQ(a[i].arg, b[i].arg) << name << " op " << i;
    }
  }
}

TEST(Workload, SeedChangesRandomizedStreams) {
  auto wl = make_workload("radix", 0.25);
  auto a = drain(*wl->stream(0, 1));
  auto b = drain(*wl->stream(0, 2));
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].arg != b[i].arg;
  EXPECT_TRUE(differs);
}

TEST(Workload, AddressesStayInSharedSpace) {
  for (const auto& name : workload_names()) {
    auto wl = make_workload(name, 0.25);
    const Addr limit{wl->total_pages() * wl->page_bytes().value()};
    for (std::uint32_t p = 0; p < wl->nodes(); ++p) {
      for (const Op& op : drain(*wl->stream(p, 7))) {
        if (op.kind == OpKind::kLoad || op.kind == OpKind::kStore) {
          ASSERT_LT(op.arg, limit.value()) << name;
        }
      }
    }
  }
}

TEST(Workload, AllProcessesAgreeOnBarrierCount) {
  for (const auto& name : workload_names()) {
    auto wl = make_workload(name, 0.25);
    std::set<std::uint64_t> counts;
    for (std::uint32_t p = 0; p < wl->nodes(); ++p) {
      std::uint64_t barriers = 0;
      for (const Op& op : drain(*wl->stream(p, 7)))
        if (op.kind == OpKind::kBarrier) ++barriers;
      counts.insert(barriers);
    }
    EXPECT_EQ(counts.size(), 1u) << name << " has asymmetric barriers";
    EXPECT_GT(*counts.begin(), 0u) << name;
  }
}

TEST(Workload, LocksAreBalanced) {
  for (const auto& name : workload_names()) {
    auto wl = make_workload(name, 0.25);
    for (std::uint32_t p = 0; p < wl->nodes(); ++p) {
      std::map<std::uint64_t, int> held;
      for (const Op& op : drain(*wl->stream(p, 7))) {
        if (op.kind == OpKind::kLock) {
          ASSERT_EQ(held[op.arg], 0) << name << " double lock";
          held[op.arg] = 1;
        } else if (op.kind == OpKind::kUnlock) {
          ASSERT_EQ(held[op.arg], 1) << name << " unlock without lock";
          held[op.arg] = 0;
        }
      }
      for (const auto& [id, h] : held)
        ASSERT_EQ(h, 0) << name << " lock " << id << " left held";
    }
  }
}

TEST(Workload, EveryProcessTouchesRemotePages) {
  for (const auto& name : workload_names()) {
    auto wl = make_workload(name, 0.25);
    const auto per = wl->pages_per_node();
    for (std::uint32_t p = 0; p < wl->nodes(); ++p) {
      bool remote = false;
      for (const Op& op : drain(*wl->stream(p, 7))) {
        if (op.kind != OpKind::kLoad && op.kind != OpKind::kStore) continue;
        const VPageId page{op.arg / wl->page_bytes().value()};
        if (page.value() / per != p) {
          remote = true;
          break;
        }
      }
      EXPECT_TRUE(remote) << name << " proc " << p;
    }
  }
}

TEST(Workload, RadixTouchesEveryPage) {
  auto wl = make_workload("radix");
  std::set<VPageId> touched;
  for (const Op& op : drain(*wl->stream(0, 7))) {
    if (op.kind == OpKind::kLoad || op.kind == OpKind::kStore)
      touched.insert(VPageId{op.arg / wl->page_bytes().value()});
  }
  // "Every node accesses every page of shared data at some time."
  EXPECT_EQ(touched.size(), wl->total_pages());
}

TEST(Workload, OceanRemoteSetIsSmall) {
  auto wl = make_workload("ocean", 0.5);
  const auto per = wl->pages_per_node();
  std::set<VPageId> remote;
  for (const Op& op : drain(*wl->stream(3, 7))) {
    if (op.kind != OpKind::kLoad && op.kind != OpKind::kStore) continue;
    const VPageId page{op.arg / wl->page_bytes().value()};
    if (page.value() / per != 3) remote.insert(page);
  }
  // Only boundary pages with the two ring neighbours.
  EXPECT_LE(remote.size(), 64u);
  EXPECT_GT(remote.size(), 0u);
}

TEST(Workload, ScaleShrinksStreams) {
  auto big = make_workload("em3d", 1.0);
  auto small = make_workload("em3d", 0.2);
  const auto nb = drain(*big->stream(0, 7)).size();
  const auto ns = drain(*small->stream(0, 7)).size();
  EXPECT_LT(ns, nb);
  EXPECT_GT(ns, 0u);
}

// A scale whose iteration count does not fit in u32 is a typed error from
// the stream, not an undefined float-to-integer cast.
TEST(Workload, OversizedScaleThrowsCheckFailure) {
  const auto wl = make_workload("em3d", 1e9);
  const auto s = wl->stream(0, 7);
  EXPECT_THROW(s->next(), CheckFailure);
}

// ---- the lazy stream adapter ------------------------------------------------

// A generator that yields `ops` verbatim (taken by value: the coroutine
// frame keeps its own copy).
GeneratorStream yield_all(std::vector<Op> ops) {
  for (const Op op : ops) co_yield op;
}

TEST(GeneratorStream, CoalescesComputeAndPrivate) {
  const OpFactory b(ByteCount{4096}, ByteCount{32});
  GeneratorStream s = yield_all({b.compute(Cycle{10}), b.compute(Cycle{20}),
                                 b.private_ops(3), b.private_ops(4),
                                 b.load(VPageId{0}, 0)});
  const auto ops = drain(s);
  ASSERT_EQ(ops.size(), 3u);  // compute, private, load
  EXPECT_EQ(ops[0].kind, OpKind::kCompute);
  EXPECT_EQ(ops[0].arg, 30u);
  EXPECT_EQ(ops[1].kind, OpKind::kPrivate);
  EXPECT_EQ(ops[1].arg, 7u);
  EXPECT_EQ(ops[2].kind, OpKind::kLoad);
  EXPECT_EQ(s.next().kind, OpKind::kEnd);
}

TEST(GeneratorStream, ZeroLengthBurstDoesNotSplitAMerge) {
  GeneratorStream s = yield_all({OpFactory::compute(Cycle{5}),
                                 OpFactory::compute(Cycle{0}),
                                 OpFactory::compute(Cycle{3})});
  const auto ops = drain(s);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, OpKind::kCompute);
  EXPECT_EQ(ops[0].arg, 8u);
}

// The generator runs a batch ahead of the reader: a burst that ends a full
// batch must still absorb the bursts yielded after it.
TEST(GeneratorStream, MergesAcrossBatchBoundary) {
  const OpFactory b(ByteCount{4096}, ByteCount{32});
  std::vector<Op> in(GeneratorStream::kBatch - 1, b.load(VPageId{0}, 1));
  in.insert(in.end(), {b.compute(Cycle{5}), b.compute(Cycle{3}),
                       b.store(VPageId{0}, 2), b.private_ops(0),
                       b.private_ops(2)});
  GeneratorStream s = yield_all(in);
  const auto ops = drain(s);
  ASSERT_EQ(ops.size(), GeneratorStream::kBatch + 2);
  const Op& burst = ops[GeneratorStream::kBatch - 1];
  EXPECT_EQ(burst.kind, OpKind::kCompute);
  EXPECT_EQ(burst.arg, 8u);
  EXPECT_EQ(ops[GeneratorStream::kBatch].kind, OpKind::kStore);
  EXPECT_EQ(ops.back().kind, OpKind::kPrivate);
  EXPECT_EQ(ops.back().arg, 2u);
}

TEST(GeneratorStream, LineWrapsWithinPage) {
  const OpFactory b(ByteCount{4096}, ByteCount{32});
  GeneratorStream s = yield_all({b.load(VPageId{2}, 130)});
  // 130 % 128 = line 2 of page 2
  EXPECT_EQ(s.next().arg, 2u * 4096 + 2 * 32);
}

TEST(GeneratorStream, ReturnsEndForever) {
  GeneratorStream s = yield_all({OpFactory::compute(Cycle{5})});
  EXPECT_EQ(s.next().kind, OpKind::kCompute);
  EXPECT_EQ(s.next().kind, OpKind::kEnd);
  EXPECT_EQ(s.next().kind, OpKind::kEnd);
}

// ---- OpStream: the inline window over a generator's batches ---------------

// A generator of `n` loads of consecutive lines (loads never merge).
GeneratorStream yield_loads(std::uint32_t n) {
  const OpFactory b(ByteCount{4096}, ByteCount{32});
  for (std::uint32_t i = 0; i < n; ++i) co_yield b.load(VPageId{0}, i);
}

TEST(OpStream, BatchBoundaries) {
  constexpr std::uint32_t kBatch = GeneratorStream::kBatch;
  for (const std::uint32_t n : {0u, 1u, kBatch - 1, kBatch, kBatch + 1,
                                2 * kBatch, 2 * kBatch + 1}) {
    SCOPED_TRACE(n);
    GeneratorStream s = yield_loads(n);
    OpStream& stream = s;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Op op = stream.next();
      ASSERT_EQ(op.kind, OpKind::kLoad) << "op " << i;
      ASSERT_EQ(op.arg, (i % 128) * 32u) << "op " << i;
    }
    for (int k = 0; k < 3; ++k) EXPECT_EQ(stream.next().kind, OpKind::kEnd);
  }
}

// A generator of `n` loads that then throws.
GeneratorStream loads_then_throw(std::uint32_t n) {
  const OpFactory b(ByteCount{4096}, ByteCount{32});
  for (std::uint32_t i = 0; i < n; ++i) co_yield b.load(VPageId{0}, i);
  throw std::runtime_error("generator failed");
}

TEST(OpStream, GeneratorExceptionComesOutOfNext) {
  // The generator runs up to a batch ahead of the reader, so the exception
  // surfaces at the read that needs the batch it was thrown in.
  constexpr std::uint32_t kBatch = GeneratorStream::kBatch;
  for (const std::uint32_t full_batches : {0u, 1u, 2u}) {
    SCOPED_TRACE(full_batches);
    GeneratorStream s = loads_then_throw(full_batches * kBatch + 3);
    for (std::uint32_t i = 0; i < full_batches * kBatch; ++i)
      ASSERT_EQ(s.next().kind, OpKind::kLoad) << "op " << i;
    EXPECT_THROW(s.next(), std::runtime_error);
    // The finished generator is not resumed again: the stream ends.
    int reads = 0;
    while (s.next().kind != OpKind::kEnd) ASSERT_LE(++reads, 3);
    EXPECT_EQ(s.next().kind, OpKind::kEnd);
  }
}

// ---- the generated streams are the materialised streams --------------------

// FNV-1a over (kind byte, arg as 8 little-endian bytes) of every op of every
// process stream, in process order, with each stream's op count hashed in
// after its ops.
struct StreamDigest {
  std::uint64_t ops = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;

  void mix(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
};

StreamDigest digest(const Workload& wl, std::uint64_t seed) {
  StreamDigest d;
  for (std::uint32_t p = 0; p < wl.processes(); ++p) {
    auto s = wl.stream(p, seed);
    std::uint64_t n = 0;
    for (Op op = s->next(); op.kind != OpKind::kEnd; op = s->next(), ++n) {
      d.mix(static_cast<std::uint64_t>(op.kind), 1);
      d.mix(op.arg, 8);
    }
    d.mix(n, 8);
    d.ops += n;
  }
  return d;
}

// Pinned from the streams the generators produced when every op was
// materialised into a vector before the run: any change to an op, its
// order, or the compute/private merging shows up here.
TEST(WorkloadStreams, PinnedDigests) {
  struct Pin {
    const char* workload;
    double scale;
    std::uint64_t seed;
    std::uint64_t ops;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"barnes", 0.25, 1, 451936u, 0x457f8c5eb9c119e5ull},
      {"barnes", 0.25, 7, 451936u, 0x457f8c5eb9c119e5ull},
      {"barnes", 1.00, 1, 1807744u, 0x8ea48db1bbed2ed5ull},
      {"barnes", 1.00, 7, 1807744u, 0x8ea48db1bbed2ed5ull},
      {"em3d", 0.25, 1, 185376u, 0xf38bae6ebfd05685ull},
      {"em3d", 0.25, 7, 185376u, 0x39c17ab9ea99ba65ull},
      {"em3d", 1.00, 1, 926880u, 0xdc6fa5b519aa7a55ull},
      {"em3d", 1.00, 7, 926880u, 0xa328196340d88775ull},
      {"fft", 0.25, 1, 514992u, 0xc41555385c7d0095ull},
      {"fft", 0.25, 7, 514992u, 0xc41555385c7d0095ull},
      {"fft", 1.00, 1, 1029984u, 0x0e53aa1b2780f525ull},
      {"fft", 1.00, 7, 1029984u, 0x0e53aa1b2780f525ull},
      {"lu", 0.25, 1, 676840u, 0x7dab3c14a8259ee5ull},
      {"lu", 0.25, 7, 676840u, 0x7dab3c14a8259ee5ull},
      {"lu", 1.00, 1, 2707360u, 0xbff8ec4aa3de018dull},
      {"lu", 1.00, 7, 2707360u, 0xbff8ec4aa3de018dull},
      {"ocean", 0.25, 1, 148512u, 0x074968de02363925ull},
      {"ocean", 0.25, 7, 148512u, 0x074968de02363925ull},
      {"ocean", 1.00, 1, 742560u, 0xb35079df92afa845ull},
      {"ocean", 1.00, 7, 742560u, 0xb35079df92afa845ull},
      {"radix", 0.25, 1, 1093864u, 0x4adb1780546a0284ull},
      {"radix", 0.25, 7, 1093864u, 0x3147250945f39f8full},
      {"radix", 1.00, 1, 4375456u, 0x2904dbdd35a2b6a3ull},
      {"radix", 1.00, 7, 4375456u, 0xf4ead554a6788b75ull},
      {"synthetic", 1.00, 1, 368704u, 0x2843a71c85984a3aull},
      {"synthetic", 1.00, 7, 368704u, 0x259f3fd99faa5b71ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.workload) + " scale " +
                 std::to_string(pin.scale) + " seed " +
                 std::to_string(pin.seed));
    std::unique_ptr<Workload> wl = make_workload(pin.workload, pin.scale);
    if (wl == nullptr)  // "synthetic": default SyntheticParams
      wl = std::make_unique<SyntheticWorkload>(SyntheticParams{});
    const StreamDigest d = digest(*wl, pin.seed);
    EXPECT_EQ(d.ops, pin.ops);
    EXPECT_EQ(d.hash, pin.hash);
  }
}

// Heap allocations made while building and draining process 0's stream.
std::uint64_t allocs_to_drain(const Workload& wl) {
  const std::uint64_t before = core::thread_alloc_count();
  {
    auto s = wl.stream(0, 7);
    while (s->next().kind != OpKind::kEnd) {
    }
  }
  return core::thread_alloc_count() - before;
}

TEST(WorkloadStreams, AllocationsFlatInRunLength) {
  if (!core::alloc_hook_active())
    GTEST_SKIP() << "allocation hook compiled out";
  for (const char* name : {"radix", "em3d"}) {
    const std::uint64_t base = allocs_to_drain(*make_workload(name, 0.25));
    EXPECT_GT(base, 0u) << name;
    for (const double scale : {1.0, 4.0})
      EXPECT_EQ(allocs_to_drain(*make_workload(name, scale)), base)
          << name << " scale " << scale;
  }
}

}  // namespace
}  // namespace ascoma::workload
