#include "workload/splash.hh"

namespace ascoma::workload {

// barnes: compute-intensive N-body (8 nodes).  Each iteration a process
// (1) rebuilds its local tree (local reads/writes with locks guarding cell
// updates) and (2) computes forces, reading a dense 40% region of every
// other node's bodies twice, with high spatial locality.  The remote region
// is identical across iterations, so remote pages stay hot for the whole
// run — the behaviour that rewards S-COMA-style replication and punishes
// page-cache churn at high memory pressure.
GeneratorStream BarnesWorkload::generate(std::uint32_t proc,
                                         std::uint64_t seed) const {
  (void)seed;  // deterministic tree-build and force-pass pattern
  OpFactory b(page_bytes(), line_bytes());

  const std::uint64_t H = home_pages_;
  const VPageId my_base = partition_base(NodeId{proc});
  const std::uint64_t remote_pages = (H * 2) / 5;  // 40% of each partition
  const std::uint32_t iters = scaled(4);

  for (std::uint32_t it = 0; it < iters; ++it) {
    // --- tree build: local partition, read-modify-write with cell locks ---
    for (std::uint64_t p = 0; p < H; ++p) {
      const VPageId page = my_base + p;
      co_yield b.compute(Cycle{20});
      for (std::uint32_t l = 0; l < 16; ++l) co_yield b.load(page, l * 8);
      const std::uint64_t lock_id = (proc * 37 + p) % 32;
      co_yield b.lock(lock_id);
      co_yield b.store(page, (p * 8) % 128);
      co_yield b.store(page, (p * 8 + 4) % 128);
      co_yield b.unlock(lock_id);
      co_yield b.private_ops(8);
    }
    co_yield b.barrier();

    // --- force computation: dense remote regions, two passes -------------
    for (std::uint32_t pass = 0; pass < 2; ++pass) {
      for (std::uint32_t q = 0; q < nodes_; ++q) {
        if (q == proc) continue;
        const VPageId q_base = partition_base(NodeId{q});
        // The dense region starts at a per-(proc,q) deterministic offset so
        // partitions overlap differently per reader.
        const std::uint64_t off = mix64(proc, q) % (H - remote_pages);
        for (std::uint64_t p = 0; p < remote_pages; ++p) {
          const VPageId page = q_base + off + p;
          co_yield b.compute(Cycle{30});  // barnes is compute-heavy
          for (std::uint32_t l = 0; l < 32; ++l) co_yield b.load(page, l * 4);
          co_yield b.private_ops(12);
        }
      }
      co_yield b.barrier();
    }

    // --- body update: local stores ---------------------------------------
    for (std::uint64_t p = 0; p < H; ++p) {
      const VPageId page = my_base + p;
      for (std::uint32_t l = 0; l < 8; ++l) co_yield b.store(page, l * 16);
      co_yield b.compute(Cycle{10});
    }
    co_yield b.barrier();
  }
}

}  // namespace ascoma::workload
