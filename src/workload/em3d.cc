#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "workload/splash.hh"

namespace ascoma::workload {

// em3d: bipartite-graph relaxation (8 nodes).  Each process owns 512 pages
// of graph nodes and holds edges to a fixed, randomly chosen set of ~160
// remote pages (~24% of the per-node footprint).  Every iteration reads the
// whole remote neighbour set — all remote pages are hot all the time, so
// above the ideal pressure (~76%) the page cache cannot hold the working set
// and thrash handling dominates (the paper's flagship high-pressure case).
GeneratorStream Em3dWorkload::generate(std::uint32_t proc,
                                       std::uint64_t seed) const {
  OpFactory b(page_bytes(), line_bytes());
  Rng rng(seed, mix64(0xE3D, proc));

  const std::uint64_t H = home_pages_;
  const VPageId my_base = partition_base(NodeId{proc});
  const std::uint64_t remote_count = 160;

  // Fixed remote neighbour set: sampled without replacement from the other
  // nodes' partitions (deterministic per (seed, proc)).
  std::vector<VPageId> neighbours;
  neighbours.reserve(remote_count);
  {
    std::vector<std::uint8_t> chosen(total_pages(), 0);
    while (neighbours.size() < remote_count) {
      const VPageId cand{rng.below(total_pages())};
      if (cand >= my_base && cand < my_base + H) continue;
      if (chosen[cand.value()]) continue;
      chosen[cand.value()] = 1;
      neighbours.push_back(cand);
    }
  }
  std::sort(neighbours.begin(), neighbours.end());

  const std::uint32_t iters = scaled(10);
  for (std::uint32_t it = 0; it < iters; ++it) {
    // Local half-step: update owned nodes.
    for (std::uint64_t p = 0; p < H; ++p) {
      const VPageId page = my_base + p;
      for (std::uint32_t l = 0; l < 8; ++l) co_yield b.load(page, l * 16);
      co_yield b.store(page, (it * 4 + p) % 128);
      co_yield b.store(page, (it * 4 + p + 64) % 128);
      co_yield b.compute(Cycle{10});
      co_yield b.private_ops(4);
    }
    co_yield b.barrier();
    // Remote gather: read every neighbour page, two sweeps over 16 blocks.
    for (std::uint32_t sweep = 0; sweep < 2; ++sweep) {
      for (const VPageId page : neighbours) {
        for (std::uint32_t l = 0; l < 16; ++l) co_yield b.load(page, l * 8);
        co_yield b.compute(Cycle{6});
      }
    }
    co_yield b.barrier();
  }
}

}  // namespace ascoma::workload
