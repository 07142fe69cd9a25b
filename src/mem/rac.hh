#pragma once

// Remote Access Cache on the DSM engine.  Direct-mapped over 128 B blocks,
// non-inclusive with respect to the L1.  The paper's CC-NUMA and hybrid
// models use a minimal 128 B RAC "containing the last remote data received
// as part of performing a 4-line fetch"; the size is configurable so the
// ablation bench can grow or remove it.  The entry count is 0 (no RAC) or a
// power of two (MachineConfig::validate), so a block's slot is a mask of its
// id, and a page purge visits at most min(entries, blocks_per_page) slots.

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace ascoma::mem {

class Rac {
 public:
  explicit Rac(const MachineConfig& cfg);

  bool probe(BlockId block) const {
    if (slots_.empty()) return false;
    const Slot& s = slots_[index_of(block)];
    return s.valid && s.tag == block;
  }

  /// Insert a remote block (typically the one just fetched).
  void fill(BlockId block) {
    if (slots_.empty()) return;
    Slot& s = slots_[index_of(block)];
    s.tag = block;
    s.valid = true;
  }

  /// Invalidate a block if present; true if it was present.
  bool invalidate(BlockId block) {
    if (slots_.empty()) return false;
    Slot& s = slots_[index_of(block)];
    if (!s.valid || s.tag != block) return false;
    s.valid = false;
    return true;
  }

  /// Invalidate every cached block belonging to a virtual page (performed on
  /// page remap); returns the number invalidated.  Scans only the page's
  /// window of min(entries, blocks_per_page) slots.
  std::uint32_t invalidate_page(VPageId page);

  std::uint64_t hits() const { return hits_; }
  std::uint32_t entries() const { return static_cast<std::uint32_t>(slots_.size()); }
  void note_hit() { ++hits_; }

  /// Snapshot of the resident block ids (invariant checker, tests).
  std::vector<BlockId> valid_block_ids() const {
    std::vector<BlockId> out;
    for (const Slot& s : slots_)
      if (s.valid) out.push_back(s.tag);
    return out;
  }

 private:
  struct Slot {
    BlockId tag{0};
    bool valid = false;
  };

  std::uint32_t index_of(BlockId b) const {
    return static_cast<std::uint32_t>(b.value()) & index_mask_;
  }

  std::uint32_t blocks_per_page_;
  std::vector<Slot> slots_;
  std::uint32_t index_mask_;  ///< entries - 1 (unused when slots_ is empty)
  std::uint64_t hits_ = 0;
};

}  // namespace ascoma::mem
