#include "mem/rac.hh"

namespace ascoma::mem {

Rac::Rac(const MachineConfig& cfg)
    : blocks_per_page_(cfg.blocks_per_page()), slots_(cfg.rac_entries()) {
  // Zero entries = RAC disabled (ablation configuration): probes always
  // miss and fills/invalidations are no-ops.
}

std::uint32_t Rac::invalidate_page(VPageId page) {
  const BlockId first{page.value() * blocks_per_page_};
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < blocks_per_page_; ++i)
    n += invalidate(first + i) ? 1 : 0;
  return n;
}

void Rac::reset() {
  for (Slot& s : slots_) s = Slot{};
  hits_ = 0;
  fills_ = 0;
}

}  // namespace ascoma::mem
