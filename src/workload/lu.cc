#include "workload/splash.hh"

namespace ascoma::workload {

// lu: blocked dense LU factorization (4 nodes, as in the paper).  Phase k
// broadcasts the pivot block column owned by node k%4: every process sweeps
// the 48-page window ten times (crossing the relocation threshold early in
// the phase, so most of the phase benefits from an upgrade) and then never
// touches it again.  Over the run every remote page becomes hot exactly
// once, but the *active* remote set is always one window — a small page
// cache suffices at any memory pressure, which is why all the hybrids beat
// CC-NUMA by a wide, pressure-independent margin here.  Phases are long
// relative to the pageout-daemon period, so dead windows are reclaimed in
// time to serve the next one.
GeneratorStream LuWorkload::generate(std::uint32_t proc,
                                     std::uint64_t seed) const {
  (void)seed;  // deterministic blocked access pattern
  OpFactory b(page_bytes(), line_bytes());

  const std::uint64_t H = home_pages_;
  constexpr std::uint64_t kWindow = 48;  // pages per pivot block column
  constexpr std::uint32_t kSweeps = 10;
  const std::uint64_t windows_per_node = H / kWindow;
  const std::uint32_t phases =
      scaled(static_cast<std::uint32_t>(nodes_ * windows_per_node));
  const VPageId my_base = partition_base(NodeId{proc});

  for (std::uint32_t k = 0; k < phases; ++k) {
    const NodeId pivot{k % nodes_};
    const std::uint64_t w = (k / nodes_) % windows_per_node;
    const VPageId win_base = partition_base(NodeId{pivot}) + w * kWindow;

    // Repeated sweeps of the pivot window (reads; local for the pivot node).
    // Stride 4 lines = one line per coherence block: every sweep refetches
    // every block, so the refetch counter crosses the threshold by sweep 3.
    for (std::uint32_t sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::uint64_t p = 0; p < kWindow; ++p) {
        for (std::uint32_t l = 0; l < 32; ++l)
          co_yield b.load(win_base + p, l * 4);
        co_yield b.compute(Cycle{12});
      }
    }

    // Trailing-matrix update: write into the owned partition.
    for (std::uint64_t p = 0; p < H / 8; ++p) {
      const VPageId page = my_base + (k * (H / 8) + p) % H;
      for (std::uint32_t l = 0; l < 8; ++l) {
        co_yield b.load(page, l * 16);
        co_yield b.store(page, l * 16 + 2);
      }
      co_yield b.compute(Cycle{10});
      co_yield b.private_ops(4);
    }
    co_yield b.barrier();
  }
}

}  // namespace ascoma::workload
