#pragma once

// L1 processor cache model: direct-mapped, write-back, virtually indexed,
// physically tagged (we index and tag by global virtual line id, which is
// equivalent because the global virtual space is shared and 1:1 within a
// page).  Matches Table 3: 16 KB, 32 B lines, 1-cycle hit, one outstanding
// miss (blocking — enforced by the machine loop, not here).
//
// The cache tracks per-line valid/dirty state only; simulated data values
// live in the functional memory shadow used by the coherence tests.

#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/config.hh"
#include "common/types.hh"
#include "store/codec.hh"

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
    const Slot& s = lines_[index_of(line)];
    return s.valid && s.tag == line;
  }

  /// Fill `line`, evicting whatever direct-mapped slot it occupies.
  AccessResult fill(LineId line, bool dirty) {
    Slot& s = lines_[index_of(line)];
    AccessResult r;
    if (s.valid && s.tag != line) {
      r.evicted = true;
      r.victim = s.tag;
      r.writeback = s.dirty;
      --valid_count_;
    } else if (s.valid && s.tag == line) {
      // Refill of a present line (e.g. upgrade fill): keep dirty sticky.
      s.dirty = s.dirty || dirty;
      return r;
    }
    s.tag = line;
    s.valid = true;
    s.dirty = dirty;
    ++valid_count_;
    return r;
  }

  /// Marks an already-present line dirty (store hit).
  void touch_store(LineId line);

  /// Invalidate one line if present; returns true if it was present.
  bool invalidate_line(LineId line) {
    Slot& s = lines_[index_of(line)];
    if (!s.valid || s.tag != line) return false;
    s.valid = false;
    s.dirty = false;
    --valid_count_;
    return true;
  }

  /// Invalidate all lines of a coherence block; returns count invalidated.
  std::uint32_t invalidate_block(BlockId block);

  struct FlushResult {
    std::uint32_t valid_lines = 0;
    std::uint32_t dirty_lines = 0;
  };

  /// Flush (invalidate, counting dirty writebacks) every line of a virtual
  /// page — the operation performed when a page is remapped.
  FlushResult flush_page(VPageId page);

  bool line_dirty(LineId line) const;
  std::uint32_t valid_lines() const { return valid_count_; }

  /// Snapshot of the resident line ids (invariant checker, tests).
  std::vector<LineId> valid_line_ids() const {
    std::vector<LineId> out;
    out.reserve(valid_count_);
    for (const Slot& s : lines_)
      if (s.valid) out.push_back(s.tag);
    return out;
  }

  std::uint32_t num_lines() const { return static_cast<std::uint32_t>(lines_.size()); }

  // Checkpoint serialization (encode/decode stay adjacent — pairing check).
  void encode(store::Encoder& e) const {
    e.u64(lines_.size());
    for (const Slot& s : lines_) {
      e.u64(s.tag.value());
      e.b(s.valid);
      e.b(s.dirty);
    }
    e.u32(valid_count_);
  }
  void decode(store::Decoder& d) {
    if (d.u64() != lines_.size())
      throw store::CodecError("L1 geometry mismatch");
    for (Slot& s : lines_) {
      s.tag = LineId{d.u64()};
      s.valid = d.b();
      s.dirty = d.b();
    }
    valid_count_ = d.u32();
  }

  void reset();

 private:
  struct Slot {
    LineId tag{0};
    bool valid = false;
    bool dirty = false;
  };

  std::uint32_t index_of(LineId line) const {
    return static_cast<std::uint32_t>(line.value()) & index_mask_;
  }

  std::uint32_t lines_per_block_;
  std::uint32_t lines_per_page_;
  std::uint32_t index_mask_;
  std::vector<Slot> lines_;
  std::uint32_t valid_count_ = 0;
};

}  // namespace ascoma::mem
