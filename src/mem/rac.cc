#include "mem/rac.hh"

#include <algorithm>

#include "common/check.hh"

namespace ascoma::mem {

Rac::Rac(const MachineConfig& cfg)
    : blocks_per_page_(cfg.blocks_per_page()),
      slots_(cfg.rac_entries()),
      index_mask_(cfg.rac_entries() - 1) {
  // Zero entries = RAC disabled (ablation configuration): probes always
  // miss and fills/invalidations are no-ops.
  ASCOMA_CHECK_MSG((cfg.rac_entries() & (cfg.rac_entries() - 1)) == 0,
                   "RAC entry count must be 0 or a power of two");
}

std::uint32_t Rac::invalidate_page(VPageId page) {
  if (slots_.empty()) return 0;
  // Both counts are powers of two, so the page's blocks map to one
  // contiguous window: bpp slots from first & mask when the RAC holds a whole
  // page, else every slot (first & mask is then 0).
  const std::uint64_t first = page.value() * blocks_per_page_;
  const std::size_t start = first & index_mask_;
  const std::size_t span =
      std::min<std::size_t>(slots_.size(), blocks_per_page_);
  std::uint32_t n = 0;
  for (std::size_t i = start; i < start + span; ++i) {
    Slot& s = slots_[i];
    if (s.valid && s.tag.value() - first < blocks_per_page_) {
      s.valid = false;
      ++n;
    }
  }
  return n;
}

}  // namespace ascoma::mem
