#include "mem/cache.hh"

#include <algorithm>

namespace ascoma::mem {

L1Cache::L1Cache(const MachineConfig& cfg)
    : lines_per_block_(cfg.lines_per_block()),
      lines_per_page_(cfg.lines_per_page()),
      index_mask_(cfg.l1_lines() - 1),
      tags_(cfg.l1_lines(), kEmpty),
      dirty_(cfg.l1_lines(), 0) {
  ASCOMA_CHECK((cfg.l1_lines() & (cfg.l1_lines() - 1)) == 0);
  ASCOMA_CHECK((lines_per_page_ & (lines_per_page_ - 1)) == 0);
}

void L1Cache::touch_store(LineId line) {
  const std::uint32_t i = index_of(line);
  ASCOMA_CHECK_MSG(tags_[i] == line.value(), "store touch on absent line");
  dirty_[i] = 1;
}

std::uint32_t L1Cache::invalidate_block(BlockId block) {
  const LineId first{block.value() * lines_per_block_};
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < lines_per_block_; ++i)
    n += invalidate_line(first + i) ? 1 : 0;
  return n;
}

L1Cache::FlushResult L1Cache::flush_page(VPageId page) {
  // Line first + k lives in slot (first + k) & index_mask_.  Both sizes are
  // powers of two, so when the page fits in the cache its lines occupy the
  // contiguous slots [start, start + lines_per_page_); otherwise start is 0
  // and the page wraps round the whole cache lines_per_page_ / num_lines()
  // times.  Either way the window is scanned in passes of `span` slots.
  const std::uint64_t first = page.value() * lines_per_page_;
  const std::uint32_t start = static_cast<std::uint32_t>(first) & index_mask_;
  const std::uint32_t span = std::min(lines_per_page_, num_lines());
  std::uint64_t* const tags = tags_.data() + start;

  // Count first, without branches: most flushes find nothing resident.
  std::uint32_t found = 0;
  for (std::uint32_t base = 0; base < lines_per_page_; base += span) {
    const std::uint64_t line0 = first + base;
    for (std::uint32_t i = 0; i < span; ++i)
      found += tags[i] == line0 + i ? 1u : 0u;
  }
  FlushResult r;
  if (found == 0) return r;

  std::uint8_t* const dirty = dirty_.data() + start;
  for (std::uint32_t base = 0; base < lines_per_page_; base += span) {
    const std::uint64_t line0 = first + base;
    for (std::uint32_t i = 0; i < span; ++i) {
      if (tags[i] != line0 + i) continue;
      r.dirty_lines += dirty[i];
      tags[i] = kEmpty;
      dirty[i] = 0;
    }
  }
  r.valid_lines = found;
  valid_count_ -= found;
  return r;
}

void L1Cache::reset() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(dirty_.begin(), dirty_.end(), 0);
  valid_count_ = 0;
}

}  // namespace ascoma::mem
