#pragma once

// Per-node page table: maps global virtual pages to a mapping mode and, for
// S-COMA replicas, a local frame.  Also carries the TLB reference bit used
// by the pageout daemon's second-chance algorithm.

#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"

namespace ascoma::vm {

class PageTable {
 public:
  explicit PageTable(std::uint64_t total_pages);

  PageMode mode(VPageId p) const { return entries_[p].mode; }
  FrameId frame(VPageId p) const { return entries_[p].frame; }
  bool ref_bit(VPageId p) const { return entries_[p].referenced; }
  void set_ref_bit(VPageId p) { entries_[p].referenced = true; }
  void clear_ref_bit(VPageId p) { entries_[p].referenced = false; }

  void map_home(VPageId p);
  void map_numa(VPageId p);
  void map_scoma(VPageId p, FrameId f);

  /// Remove any mapping (page returns to kUnmapped — a later touch faults).
  void unmap(VPageId p);

  /// Downgrade an S-COMA replica to CC-NUMA mode (hybrid eviction: the page
  /// stays accessible through its remote home).  Returns the freed frame.
  FrameId downgrade_to_numa(VPageId p);

  /// Upgrade a CC-NUMA mapping to an S-COMA replica in frame `f`.
  void upgrade_to_scoma(VPageId p, FrameId f);

  std::uint64_t mapped_pages() const { return mapped_; }
  std::uint64_t scoma_pages() const { return scoma_; }
  std::uint64_t total_pages() const { return entries_.size(); }

 private:
  struct Entry {
    PageMode mode = PageMode::kUnmapped;
    bool referenced = false;
    FrameId frame = kInvalidFrame;
  };
  IdVector<PageId, Entry> entries_;
  std::uint64_t mapped_ = 0;
  std::uint64_t scoma_ = 0;
};

}  // namespace ascoma::vm
