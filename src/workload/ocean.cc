#include "workload/splash.hh"

namespace ascoma::workload {

// ocean: nearest-neighbour grid relaxation (8 nodes).  Each iteration
// updates the owned 512-page sub-grid and exchanges 32 boundary pages with
// each ring neighbour.  Remote traffic is a small, fixed, hot set: the
// architectures only differ at extreme pressure, and even then only
// slightly — the paper's "everything within a few % of each other" case
// (pure S-COMA excepted, since its mandatory replication thrashes at 90%).
GeneratorStream OceanWorkload::generate(std::uint32_t proc,
                                        std::uint64_t seed) const {
  (void)seed;  // deterministic stencil pattern
  OpFactory b(page_bytes(), line_bytes());

  const std::uint64_t H = home_pages_;
  constexpr std::uint64_t kBoundary = 32;  // pages shared with each neighbour
  const VPageId my_base = partition_base(NodeId{proc});
  const NodeId prev{(proc + nodes_ - 1) % nodes_};
  const NodeId next{(proc + 1) % nodes_};
  const std::uint32_t iters = scaled(10);

  for (std::uint32_t it = 0; it < iters; ++it) {
    // Interior update: read the 5-point stencil, write the new value.
    for (std::uint64_t p = 0; p < H; ++p) {
      const VPageId page = my_base + p;
      for (std::uint32_t l = 0; l < 8; ++l) co_yield b.load(page, l * 16);
      for (std::uint32_t l = 0; l < 4; ++l) co_yield b.store(page, l * 32 + 3);
      co_yield b.compute(Cycle{8});
      co_yield b.private_ops(3);
    }
    co_yield b.barrier();

    // Boundary exchange: read the neighbours' edge pages (two sweeps — the
    // stencil touches each halo row twice), which the neighbours rewrote
    // last iteration (coherence traffic).
    for (std::uint32_t sweep = 0; sweep < 2; ++sweep) {
      for (std::uint64_t p = 0; p < kBoundary; ++p) {
        // prev's last pages and next's first pages form the halo.
        const VPageId from_prev = partition_base(NodeId{prev}) + (H - kBoundary + p);
        const VPageId from_next = partition_base(NodeId{next}) + p;
        for (std::uint32_t l = 0; l < 16; ++l) {
          co_yield b.load(from_prev, l * 8);
          co_yield b.load(from_next, l * 8);
        }
        co_yield b.compute(Cycle{6});
      }
    }
    co_yield b.barrier();
  }
}

}  // namespace ascoma::workload
