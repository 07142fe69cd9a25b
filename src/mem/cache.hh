#pragma once

// L1 processor cache model: direct-mapped, write-back, virtually indexed,
// physically tagged (we index and tag by global virtual line id, which is
// equivalent because the global virtual space is shared and 1:1 within a
// page).  Matches Table 3: 16 KB, 32 B lines, 1-cycle hit, one outstanding
// miss (blocking — enforced by the machine loop, not here).
//
// The cache tracks per-line valid/dirty state only; simulated data values
// live in the functional memory shadow used by the coherence tests.
//
// Storage is two parallel arrays indexed by slot: `tags_` holds the resident
// line id (or kEmpty), `dirty_` one byte per slot.  A probe is one compare,
// and flushing a coherence block is lines_per_block probes.  A page flush
// (proto::CoherentMemory::flush_page) flushes only the blocks whose
// directory copyset holds the node: a valid L1 line implies that.

#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/config.hh"
#include "common/types.hh"

namespace ascoma::mem {

class L1Cache {
 public:
  explicit L1Cache(const MachineConfig& cfg);

  struct AccessResult {
    bool hit = false;
    bool writeback = false;  ///< a dirty victim line was evicted
    LineId victim{0};       ///< valid when a (clean or dirty) line was evicted
    bool evicted = false;
  };

  /// Probe for `line`; on a miss the line is *not* filled (call fill() after
  /// the memory system supplies the data).
  bool probe(LineId line) const {
    return tags_[index_of(line)] == line.value();
  }

  /// Fill `line`, evicting whatever direct-mapped slot it occupies.
  AccessResult fill(LineId line, bool dirty) {
    const std::uint32_t i = index_of(line);
    std::uint64_t& tag = tags_[i];
    AccessResult r;
    if (tag == line.value()) {
      // Refill of a present line (e.g. upgrade fill): keep dirty sticky.
      if (dirty) dirty_[i] = 1;
      return r;
    }
    if (tag != kEmpty) {
      r.evicted = true;
      r.victim = LineId{tag};
      r.writeback = dirty_[i] != 0;
    }
    tag = line.value();
    dirty_[i] = dirty ? 1 : 0;
    return r;
  }

  /// Marks an already-present line dirty (store hit).
  void touch_store(LineId line);

  /// Invalidate one line if present; returns true if it was present.
  bool invalidate_line(LineId line) {
    const std::uint32_t i = index_of(line);
    if (tags_[i] != line.value()) return false;
    tags_[i] = kEmpty;
    dirty_[i] = 0;
    return true;
  }

  struct FlushResult {
    std::uint32_t valid_lines = 0;
    std::uint32_t dirty_lines = 0;
  };

  /// Flush (invalidate, counting dirty writebacks) every line of a coherence
  /// block: lines_per_block probes.
  FlushResult flush_block(BlockId block) {
    const std::uint64_t first = block.value() * lines_per_block_;
    FlushResult r;
    for (std::uint32_t k = 0; k < lines_per_block_; ++k) {
      const std::uint32_t i = index_of(LineId{first + k});
      if (tags_[i] != first + k) continue;
      ++r.valid_lines;
      r.dirty_lines += dirty_[i];
      tags_[i] = kEmpty;
      dirty_[i] = 0;
    }
    return r;
  }

  /// Invalidate all lines of a coherence block; returns count invalidated.
  std::uint32_t invalidate_block(BlockId block) {
    return flush_block(block).valid_lines;
  }

  bool line_dirty(LineId line) const {
    const std::uint32_t i = index_of(line);
    return tags_[i] == line.value() && dirty_[i] != 0;
  }
  /// Resident line count: a scan of every slot (tests, invariant checker).
  std::uint32_t valid_lines() const;

  /// Snapshot of the resident line ids (invariant checker, tests).
  std::vector<LineId> valid_line_ids() const {
    std::vector<LineId> out;
    out.reserve(valid_lines());
    for (const std::uint64_t tag : tags_)
      if (tag != kEmpty) out.push_back(LineId{tag});
    return out;
  }

  std::uint32_t num_lines() const { return static_cast<std::uint32_t>(tags_.size()); }

 private:
  /// Tag of an empty slot.  A line id is at most total_pages × lines_per_page,
  /// far below 2^64 - 1, so no probe can match it.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::uint32_t index_of(LineId line) const {
    return static_cast<std::uint32_t>(line.value()) & index_mask_;
  }

  std::uint32_t lines_per_block_;
  std::uint32_t index_mask_;
  std::vector<std::uint64_t> tags_;   ///< resident line id per slot, or kEmpty
  std::vector<std::uint8_t> dirty_;   ///< 1 when the slot's line is dirty
};

}  // namespace ascoma::mem
