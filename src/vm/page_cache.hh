#pragma once

// Per-node physical frame accounting for the S-COMA page cache.
//
// A node's frames split into `home_frames` (pinned, hold home pages) and
// `cache_capacity` frames available for S-COMA replication.  The free pool
// plus the clock list of active S-COMA pages implement the 4.4BSD-style
// allocation the paper builds on.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"

namespace ascoma::vm {

class PageCache {
 public:
  /// `capacity` = number of frames available for S-COMA page replication.
  explicit PageCache(std::uint32_t capacity);

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t free_frames() const { return static_cast<std::uint32_t>(free_.size()); }
  std::uint32_t active_pages() const { return active_count_; }

  /// Pre-size the per-page activity array for `total_pages` shared pages.
  /// Called at machine setup so add_active() never grows the array on the
  /// fault path; safe to call again with a larger count.
  void reserve_pages(std::uint64_t total_pages);

  /// Take a frame from the free pool (nullopt when drained).
  std::optional<FrameId> alloc();

  /// Return a frame to the free pool.
  void release(FrameId f);

  /// Register a page as an active S-COMA replica (enters the clock list).
  void add_active(VPageId p);

  /// Remove a page from the clock list (evicted or explicitly downgraded).
  void remove_active(VPageId p);

  bool is_active(VPageId p) const {
    return p.value() < active_.size() && active_[p.value()] != 0;
  }

  /// Second-chance clock traversal: returns the next candidate page and
  /// rotates it to the back, or nullopt when the list is empty.  Each active
  /// page comes up once per lap.  The caller is responsible for ref-bit
  /// handling and for calling remove_active() on eviction.
  std::optional<VPageId> rotate();

 private:
  /// A clock entry is live while its generation is the page's current one.
  struct ClockEntry {
    VPageId page;
    std::uint32_t gen;
  };
  /// Entry `i` of the clock, counted from the front.
  ClockEntry clock_at(std::size_t i) const {
    return clock_[(clock_head_ + i) & (clock_.size() - 1)];
  }
  /// Append to the back of the clock, doubling the ring when it is full.
  void clock_push(ClockEntry e);

  std::uint32_t capacity_;
  std::vector<FrameId> free_;
  /// The clock list: a FIFO ring over a power-of-two vector, so rotation
  /// never allocates.  Entries of removed pages stay until rotation reaches
  /// them (lazy deletion); a page removed and added again before then gets
  /// a new generation, so its old entry is stale too.
  std::vector<ClockEntry> clock_;
  std::size_t clock_head_ = 0;
  std::size_t clock_size_ = 0;
  /// Per-page generation of the page's live clock entry (0 = not an active
  /// S-COMA replica on this node); grown only by reserve_pages().
  std::vector<std::uint32_t> active_;
  std::uint32_t last_gen_ = 0;
  std::uint32_t active_count_ = 0;
};

}  // namespace ascoma::vm
