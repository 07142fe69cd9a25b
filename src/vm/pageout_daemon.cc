#include "vm/pageout_daemon.hh"

#include "common/check.hh"

namespace ascoma::vm {

PageoutDaemon::PageoutDaemon(std::uint32_t free_min_pages,
                             std::uint32_t free_target_pages)
    : free_min_(free_min_pages), free_target_(free_target_pages) {
  ASCOMA_CHECK(free_target_ >= free_min_);
}

DaemonResult PageoutDaemon::run(PageCache& cache, PageTable& pt,
                                EvictionHandler& handler) {
  DaemonResult result;
  // Two passes give every page exactly one second chance per invocation;
  // the verdict is taken after the first, while only pages that were
  // already cold have been evicted.
  const std::uint32_t pass = cache.active_pages();
  const std::uint32_t budget = 2 * pass;
  while (cache.free_frames() < free_target_ && result.scanned < budget) {
    const auto cand = cache.rotate();
    if (!cand) break;  // no S-COMA pages left to consider
    ++result.scanned;
    const VPageId page = *cand;
    if (pt.ref_bit(page)) {
      // Referenced since last consideration: clear and give a second chance.
      pt.clear_ref_bit(page);
    } else if (handler.evict(page)) {
      ++result.reclaimed;
    }
    if (result.scanned == pass)
      result.met_target = cache.free_frames() >= free_min_;
  }
  if (result.scanned <= pass)  // the loop ended within the first pass
    result.met_target = cache.free_frames() >= free_min_;
  return result;
}

}  // namespace ascoma::vm
