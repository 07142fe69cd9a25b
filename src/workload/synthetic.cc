#include "workload/synthetic.hh"

#include <vector>

#include "common/check.hh"

namespace ascoma::workload {

SyntheticWorkload::SyntheticWorkload(SyntheticParams params)
    : params_(std::move(params)) {
  ASCOMA_CHECK(params_.nodes > 0);
  ASCOMA_CHECK(params_.home_pages > 0);
  ASCOMA_CHECK_MSG(
      params_.remote_pages <=
          (params_.nodes - 1) * params_.home_pages || params_.nodes == 1,
      "remote working set larger than the rest of the machine");
  ASCOMA_CHECK(params_.write_fraction >= 0.0 && params_.write_fraction <= 1.0);
  ASCOMA_CHECK(params_.random_fraction >= 0.0 &&
               params_.random_fraction <= 1.0);
}

std::unique_ptr<OpStream> SyntheticWorkload::stream(std::uint32_t proc,
                                                    std::uint64_t seed) const {
  return std::make_unique<GeneratorStream>(generate(proc, seed));
}

GeneratorStream SyntheticWorkload::generate(std::uint32_t proc,
                                            std::uint64_t seed) const {
  const SyntheticParams& p = params_;
  OpFactory b(page_bytes(), line_bytes());
  Rng rng(seed, mix64(0x5D17, proc));

  const std::uint64_t H = p.home_pages;
  // Processes on the same node share the node's partition (SMP extension);
  // each process still has its own hot remote set.
  const std::uint32_t node = proc / p.procs_per_node;
  const VPageId my_base{node * H};
  const std::uint64_t all = total_pages();

  // Fixed hot remote set, sampled deterministically outside our partition.
  std::vector<VPageId> hot;
  if (p.nodes > 1) {
    hot.reserve(p.remote_pages);
    std::vector<std::uint8_t> chosen(all, 0);
    while (hot.size() < p.remote_pages) {
      const VPageId cand{rng.below(all)};
      if (cand >= my_base && cand < my_base + H) continue;
      if (chosen[cand.value()]) continue;
      chosen[cand.value()] = 1;
      hot.push_back(cand);
    }
  }

  const std::uint64_t lines = b.lines_per_page();
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, lines / std::max(1u, p.loads_per_page));

  // A page visit is written out at both of its call sites: a lambda cannot
  // co_yield for this coroutine.  Each visit draws one write/read coin per
  // load, in order.
  for (std::uint32_t it = 0; it < p.iterations; ++it) {
    // Local phase.
    for (std::uint64_t pg = 0; pg < H; ++pg) {
      const VPageId page = my_base + pg;
      for (std::uint32_t l = 0; l < p.loads_per_page; ++l) {
        const std::uint64_t line = l * stride;
        co_yield rng.chance(p.write_fraction) ? b.store(page, line)
                                              : b.load(page, line);
      }
      co_yield b.compute(p.compute_per_page);
      co_yield b.private_ops(p.private_per_page);
    }
    if (p.locks > 0) {
      const std::uint64_t id = rng.below(p.locks);
      co_yield b.lock(id);
      co_yield b.store(VPageId{id % all}, id % lines);
      co_yield b.unlock(id);
    }
    if (p.barriers) co_yield b.barrier();

    // Remote phase: sweeps over the hot set plus optional random traffic.
    for (std::uint32_t s = 0; s < p.sweeps_per_iteration; ++s) {
      for (const VPageId hot_page : hot) {
        const VPageId page = rng.chance(p.random_fraction)
                                 ? VPageId{rng.below(all)}
                                 : hot_page;
        for (std::uint32_t l = 0; l < p.loads_per_page; ++l) {
          const std::uint64_t line = l * stride;
          co_yield rng.chance(p.write_fraction) ? b.store(page, line)
                                                : b.load(page, line);
        }
        co_yield b.compute(p.compute_per_page);
        co_yield b.private_ops(p.private_per_page);
      }
    }
    if (p.barriers) co_yield b.barrier();
  }
}

}  // namespace ascoma::workload
