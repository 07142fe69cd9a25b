#include "mem/cache.hh"

namespace ascoma::mem {

L1Cache::L1Cache(const MachineConfig& cfg)
    : lines_per_block_(cfg.lines_per_block()),
      lines_per_page_(cfg.lines_per_page()),
      index_mask_(cfg.l1_lines() - 1),
      lines_(cfg.l1_lines()) {
  ASCOMA_CHECK((cfg.l1_lines() & (cfg.l1_lines() - 1)) == 0);
}

void L1Cache::touch_store(LineId line) {
  Slot& s = lines_[index_of(line)];
  ASCOMA_CHECK_MSG(s.valid && s.tag == line, "store touch on absent line");
  s.dirty = true;
}

std::uint32_t L1Cache::invalidate_block(BlockId block) {
  const LineId first{block.value() * lines_per_block_};
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < lines_per_block_; ++i)
    n += invalidate_line(first + i) ? 1 : 0;
  return n;
}

L1Cache::FlushResult L1Cache::flush_page(VPageId page) {
  const LineId first{page.value() * lines_per_page_};
  FlushResult r;
  for (std::uint32_t i = 0; i < lines_per_page_; ++i) {
    Slot& s = lines_[index_of(first + i)];
    if (s.valid && s.tag == first + i) {
      ++r.valid_lines;
      if (s.dirty) ++r.dirty_lines;
      s.valid = false;
      s.dirty = false;
      --valid_count_;
    }
  }
  return r;
}

bool L1Cache::line_dirty(LineId line) const {
  const Slot& s = lines_[index_of(line)];
  return s.valid && s.tag == line && s.dirty;
}

void L1Cache::reset() {
  for (Slot& s : lines_) s = Slot{};
  valid_count_ = 0;
}

}  // namespace ascoma::mem
