#include "common/rng.hh"
#include "workload/splash.hh"

namespace ascoma::workload {

// radix: parallel radix sort (8 nodes).  The scatter phase writes keys to
// uniformly random lines of uniformly random pages across the whole machine:
// no spatial locality, every node touches every page, and every page is
// roughly as hot as any other.  This is the paper's extreme case where
// fine-tuning the page-cache contents backfires — pure S-COMA collapses even
// at 30% pressure, R-NUMA/VC-NUMA thrash by 70%, and only a back-off that
// parks a "reasonable subset" of pages in the cache stays near CC-NUMA.
GeneratorStream RadixWorkload::generate(std::uint32_t proc,
                                        std::uint64_t seed) const {
  OpFactory b(page_bytes(), line_bytes());
  Rng rng(seed, mix64(0x2AD1C5, proc));

  const std::uint64_t H = home_pages_;
  const std::uint64_t all_pages = total_pages();
  const VPageId my_base = partition_base(NodeId{proc});
  const std::uint32_t iters = scaled(4);
  const std::uint64_t scatter_per_iter = 30'000;

  for (std::uint32_t it = 0; it < iters; ++it) {
    // Local pass: rank the owned keys (sequential reads).
    for (std::uint64_t p = 0; p < H; ++p) {
      const VPageId page = my_base + p;
      for (std::uint32_t l = 0; l < 64; ++l) co_yield b.load(page, l * 2);
      co_yield b.compute(Cycle{6});
    }
    co_yield b.barrier();

    // Global rank/offset read: every node sweeps the machine-wide rank
    // structure twice.  Reads do not invalidate each other, so this is the
    // source of radix's uniform, machine-wide conflict refetch pressure —
    // every page ends up roughly as hot as any other.
    for (std::uint32_t pass = 0; pass < 3; ++pass) {
      for (VPageId page{0}; page.value() < all_pages; ++page) {
        if (page >= my_base && page < my_base + H) continue;  // local copy
        for (std::uint32_t l = 0; l < 16; ++l) co_yield b.load(page, l * 8);
      }
      co_yield b.compute(Cycle{200});
    }
    co_yield b.barrier();

    // Histogram merge: short critical sections on shared counters.
    for (std::uint32_t h = 0; h < 64; ++h) {
      const std::uint64_t lock_id = h;
      co_yield b.lock(lock_id);
      const VPageId page{h % all_pages};
      co_yield b.load(page, h * 2);
      co_yield b.store(page, h * 2);
      co_yield b.unlock(lock_id);
      co_yield b.private_ops(2);
    }
    co_yield b.barrier();

    // Scatter: write each key to its destination bucket — uniformly random
    // page and line, machine-wide.
    for (std::uint64_t s = 0; s < scatter_per_iter; ++s) {
      const VPageId page{rng.below(all_pages)};
      const std::uint64_t line = rng.below(128);
      co_yield b.store(page, line);
      if ((s & 7) == 0) co_yield b.compute(Cycle{4});
    }
    co_yield b.barrier();
  }
}

}  // namespace ascoma::workload
