#include "vm/page_cache.hh"

namespace ascoma::vm {

PageCache::PageCache(std::uint32_t capacity) : capacity_(capacity) {
  free_.reserve(capacity);
  // Frames handed out lowest-first for deterministic behaviour.
  for (std::uint32_t f = capacity; f > 0; --f)
    free_.push_back(FrameId(f - 1));
}

std::optional<FrameId> PageCache::alloc() {
  if (free_.empty()) return std::nullopt;
  const FrameId f = free_.back();
  free_.pop_back();
  return f;
}

void PageCache::release(FrameId f) {
  ASCOMA_CHECK(f.value() < capacity_);
  ASCOMA_CHECK_MSG(free_.size() < capacity_, "double release of a frame");
  free_.push_back(f);
}

void PageCache::reserve_pages(std::uint64_t total_pages) {
  if (total_pages > active_.size()) active_.resize(total_pages, 0);
}

void PageCache::add_active(VPageId p) {
  ASCOMA_CHECK_MSG(!is_active(p), "page already active");
  reserve_pages(p.value() + 1);  // no-op when pre-sized at machine setup
  if (++last_gen_ == 0) ++last_gen_;  // 0 marks an inactive page
  active_[p.value()] = last_gen_;
  ++active_count_;
  clock_push(ClockEntry{p, last_gen_});
}

void PageCache::remove_active(VPageId p) {
  ASCOMA_CHECK_MSG(is_active(p), "removing inactive page");
  active_[p.value()] = 0;
  --active_count_;
  // The clock entry is dropped lazily during rotation.
}

void PageCache::clock_push(ClockEntry e) {
  if (clock_size_ == clock_.size()) {
    std::vector<ClockEntry> grown(clock_.empty() ? 16 : 2 * clock_.size());
    for (std::size_t i = 0; i < clock_size_; ++i) grown[i] = clock_at(i);
    clock_.swap(grown);
    clock_head_ = 0;
  }
  clock_[(clock_head_ + clock_size_) & (clock_.size() - 1)] = e;
  ++clock_size_;
}

std::optional<VPageId> PageCache::rotate() {
  const std::size_t mask = clock_.size() - 1;
  while (clock_size_ != 0) {
    const ClockEntry e = clock_[clock_head_];
    clock_head_ = (clock_head_ + 1) & mask;
    if (active_[e.page.value()] != e.gen) {  // stale entry
      --clock_size_;
      continue;
    }
    // Front to back: the back slot is the one just vacated when the ring
    // is full, and a free slot otherwise.
    clock_[(clock_head_ + clock_size_ - 1) & mask] = e;
    return e.page;
  }
  return std::nullopt;
}

}  // namespace ascoma::vm
