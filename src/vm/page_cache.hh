#pragma once

// Per-node physical frame accounting for the S-COMA page cache.
//
// A node's frames split into `home_frames` (pinned, hold home pages) and
// `cache_capacity` frames available for S-COMA replication.  The free pool
// plus the clock list of active S-COMA pages implement the 4.4BSD-style
// allocation the paper builds on.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"
#include "store/codec.hh"

namespace ascoma::vm {

class PageCache {
 public:
  /// `capacity` = number of frames available for S-COMA page replication.
  explicit PageCache(std::uint32_t capacity);

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t free_frames() const { return static_cast<std::uint32_t>(free_.size()); }
  std::uint32_t active_pages() const { return active_count_; }

  /// Pre-size the activity bitmap for `total_pages` shared pages.  Called at
  /// machine setup so add_active() never grows the bitmap on the fault path;
  /// safe to call again with a larger count.
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
  /// rotates it to the back, or nullopt when the list is empty.  The caller
  /// is responsible for ref-bit handling and for calling remove_active() on
  /// eviction.
  std::optional<VPageId> rotate();

  // Checkpoint serialization.  `free_` and `clock_` are order-sensitive (the
  // allocator and second-chance clock depend on their sequence) and are
  // written in order; `active_` is membership-only, so its set pages are
  // written in ascending order for a canonical byte image independent of the
  // bitmap's capacity (encode/decode adjacent — pairing check).
  void encode(store::Encoder& e) const {
    e.u32(capacity_);
    e.u64(free_.size());
    for (const FrameId f : free_) e.u32(f.value());
    e.u64(clock_size_);
    for (std::size_t i = 0; i < clock_size_; ++i) e.u64(clock_at(i).value());
    e.u64(active_count_);
    for (std::uint64_t p = 0; p < active_.size(); ++p)
      if (active_[p] != 0) e.u64(p);
  }
  void decode(store::Decoder& d) {
    if (d.u32() != capacity_)
      throw store::CodecError("page cache geometry mismatch");
    free_.clear();
    const std::uint64_t nfree = d.u64();
    for (std::uint64_t i = 0; i < nfree; ++i) free_.push_back(FrameId{d.u32()});
    clock_head_ = 0;
    clock_size_ = 0;
    const std::uint64_t nclock = d.u64();
    for (std::uint64_t i = 0; i < nclock; ++i) clock_push(VPageId{d.u64()});
    std::fill(active_.begin(), active_.end(), 0);
    active_count_ = 0;
    const std::uint64_t nact = d.u64();
    for (std::uint64_t i = 0; i < nact; ++i) {
      const VPageId p{d.u64()};
      reserve_pages(p.value() + 1);
      active_[p.value()] = 1;
      ++active_count_;
    }
  }

 private:
  /// Entry `i` of the clock, counted from the front.
  VPageId clock_at(std::size_t i) const {
    return clock_[(clock_head_ + i) & (clock_.size() - 1)];
  }
  /// Append to the back of the clock, doubling the ring when it is full.
  void clock_push(VPageId p);

  std::uint32_t capacity_;
  std::vector<FrameId> free_;
  /// The clock list: a FIFO ring over a power-of-two vector, so rotation
  /// never allocates.  May contain stale entries (lazy deletion).
  std::vector<VPageId> clock_;
  std::size_t clock_head_ = 0;
  std::size_t clock_size_ = 0;
  /// Active-replica membership bitmap indexed by page (1 = active S-COMA
  /// replica on this node); grown only by reserve_pages().
  std::vector<std::uint8_t> active_;
  std::uint32_t active_count_ = 0;
};

}  // namespace ascoma::vm
