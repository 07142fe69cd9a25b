#pragma once

// Second-chance pageout daemon (Section 3 of the paper).
//
// The daemon keeps the free page pool between free_min and free_target:
// whenever free frames drop below free_min it scans the clock list of
// S-COMA pages, clearing reference bits and evicting pages whose bit was
// already clear, until free_target frames are free or two passes are done.
// A run whose first pass cannot lift the pool to free_min found too few
// cold pages: that is the thrashing signal AS-COMA's back-off consumes.

#include <cstdint>

#include "common/types.hh"
#include "vm/page_cache.hh"
#include "vm/page_table.hh"

namespace ascoma::vm {

/// Performs the architecture-specific side effects of evicting one S-COMA
/// page: flushing caches, notifying the home directory, downgrading or
/// unmapping the page, and releasing its frame.  Implemented by the machine.
class EvictionHandler {
 public:
  virtual ~EvictionHandler() = default;
  /// Evict `page`; must release the page's frame back to the PageCache and
  /// remove the page from the active list.  Returns false if the page must
  /// not be evicted (e.g. wired); the daemon then skips it.
  virtual bool evict(VPageId page) = 0;
};

struct DaemonResult {
  std::uint32_t scanned = 0;
  std::uint32_t reclaimed = 0;
  /// Free frames >= free_min after one pass of the clock (as many scans as
  /// there were active pages at entry): the run found enough cold pages.
  /// Second-pass evictions of just-cleared pages do not count.
  bool met_target = false;
};

class PageoutDaemon {
 public:
  PageoutDaemon(std::uint32_t free_min_pages, std::uint32_t free_target_pages);

  /// True when the free pool is below the low-water mark.
  bool should_run(const PageCache& cache) const {
    return cache.free_frames() < free_min_;
  }

  /// One daemon invocation: scan (at most two full passes of the clock),
  /// second-chance pages with their reference bit set, evict cold pages
  /// until the pool reaches free_target; the verdict is the first pass's.
  DaemonResult run(PageCache& cache, PageTable& pt, EvictionHandler& handler);

  std::uint32_t free_min() const { return free_min_; }
  std::uint32_t free_target() const { return free_target_; }

 private:
  std::uint32_t free_min_;
  std::uint32_t free_target_;
};

}  // namespace ascoma::vm
