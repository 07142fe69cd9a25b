#include "mem/cache.hh"

#include <algorithm>

namespace ascoma::mem {

L1Cache::L1Cache(const MachineConfig& cfg)
    : lines_per_block_(cfg.lines_per_block()),
      index_mask_(cfg.l1_lines() - 1),
      tags_(cfg.l1_lines(), kEmpty),
      dirty_(cfg.l1_lines(), 0) {
  ASCOMA_CHECK((cfg.l1_lines() & (cfg.l1_lines() - 1)) == 0);
  ASCOMA_CHECK((cfg.lines_per_page() & (cfg.lines_per_page() - 1)) == 0);
}

void L1Cache::touch_store(LineId line) {
  const std::uint32_t i = index_of(line);
  ASCOMA_CHECK_MSG(tags_[i] == line.value(), "store touch on absent line");
  dirty_[i] = 1;
}

std::uint32_t L1Cache::valid_lines() const {
  return static_cast<std::uint32_t>(
      std::count_if(tags_.begin(), tags_.end(),
                    [](std::uint64_t tag) { return tag != kEmpty; }));
}

}  // namespace ascoma::mem
