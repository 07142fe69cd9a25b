#include "workload/splash.hh"

namespace ascoma::workload {

// fft: all-to-all transpose (8 nodes).  Each iteration performs a local
// butterfly pass and then reads its chunk of every other node's partition
// exactly once, strictly sequentially.  Remote blocks are fetched once and
// never refetched within a pass, so (a) almost no page accumulates enough
// refetches to relocate (Table 6: <1%) and (b) the one-block RAC satisfies
// three of every four remote line misses ("the RAC plays a major role").
GeneratorStream FftWorkload::generate(std::uint32_t proc,
                                      std::uint64_t seed) const {
  (void)seed;  // fft's access pattern is fully deterministic
  OpFactory b(page_bytes(), line_bytes());

  const std::uint64_t H = home_pages_;
  const std::uint64_t chunk = H / nodes_;  // pages each peer reads from me
  const VPageId my_base = partition_base(NodeId{proc});
  const std::uint32_t iters = scaled(2);

  for (std::uint32_t it = 0; it < iters; ++it) {
    // Local butterfly pass over the owned partition.
    for (std::uint64_t p = 0; p < H; ++p) {
      const VPageId page = my_base + p;
      for (std::uint32_t l = 0; l < 32; ++l) co_yield b.load(page, l * 4);
      for (std::uint32_t l = 0; l < 8; ++l) co_yield b.store(page, l * 16 + 1);
      co_yield b.compute(Cycle{15});
      co_yield b.private_ops(6);
    }
    co_yield b.barrier();

    // Transpose: stream my chunk out of every peer, fully sequentially.
    for (std::uint32_t q = 0; q < nodes_; ++q) {
      if (q == proc) continue;
      const VPageId src_base = partition_base(NodeId{q}) + proc * chunk;
      for (std::uint64_t p = 0; p < chunk; ++p) {
        const VPageId src = src_base + p;
        const VPageId dst = my_base + (q * chunk + p) % H;
        for (std::uint32_t l = 0; l < 128; ++l) {
          co_yield b.load(src, l);
          if (l % 4 == 3) co_yield b.store(dst, l);
        }
        co_yield b.compute(Cycle{8});
      }
    }
    co_yield b.barrier();
  }
}

}  // namespace ascoma::workload
